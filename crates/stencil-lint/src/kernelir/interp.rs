//! Concrete per-thread evaluator for the kernel AST.
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

use super::ast::{AssignOp, Base, BinOp, Builtin, Expr, Kernel, LValue, Step, Stmt, Sym};
use super::lexer::Pos;
use std::collections::{HashMap, HashSet};

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
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
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
    /// The AST could not be evaluated — a construct outside the
    /// verified subset was reached dynamically (K006).
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

struct LocalArr {
    dims: Vec<i64>,
    data: Vec<u64>,
}

struct RegionInfo {
    base: i64,
    dims: Vec<i64>,
    extent: i64,
}

#[derive(Default)]
struct Cell {
    write: Option<(u64, u32)>,
    read: Option<u32>,
}

struct ExecError {
    msg: String,
}

fn ee(msg: impl Into<String>) -> ExecError {
    ExecError { msg: msg.into() }
}

type EResult<T> = Result<T, ExecError>;

struct Thread {
    id: u32,
    scopes: Vec<HashMap<Sym, Val>>,
    locals: HashMap<Sym, LocalArr>,
    phase: u32,
    trace: Vec<Pos>,
    steps: u64,
    cur_pos: Pos,
}

struct Interp<'k> {
    k: &'k Kernel,
    env: LaunchEnv,
    bx: i64,
    by: i64,
    regions: HashMap<Sym, RegionInfo>,
    shared: HashMap<(u32, i64), Cell>,
    ev: BlockEvents,
    seen: HashSet<(ViolationKind, Pos)>,
    buf_len: i64,
    coeff_len: i64,
}

impl Interp<'_> {
    fn violate(&mut self, kind: ViolationKind, pos: Pos, detail: String) {
        if self.ev.violations.len() >= MAX_VIOLATIONS {
            return;
        }
        if self.seen.insert((kind, pos)) {
            self.ev.violations.push(Violation { kind, pos, detail });
        }
    }

    fn clamp(v: i64, hi: i64) -> i64 {
        v.clamp(0, hi.max(1) - 1)
    }

    /// Per-dimension bounds check; returns the clamped flat offset.
    fn checked_flat(
        &mut self,
        kind: ViolationKind,
        name: &str,
        idx: &[i64],
        dims: &[i64],
        pos: Pos,
    ) -> i64 {
        let mut flat = 0i64;
        if idx.len() != dims.len() {
            self.violate(
                kind,
                pos,
                format!("{name}: {} subscripts for {} dims", idx.len(), dims.len()),
            );
        }
        for (d, dim) in dims.iter().enumerate() {
            let i = idx.get(d).copied().unwrap_or(0);
            if i < 0 || i >= *dim {
                self.violate(
                    kind,
                    pos,
                    format!("{name}[…]: index {i} outside [0, {dim}) in dim {d}"),
                );
            }
            flat = flat * dim + Self::clamp(i, *dim);
        }
        flat
    }

    fn shared_read(&mut self, t: &Thread, addr: i64, pos: Pos) -> u64 {
        let cell = self.shared.entry((t.phase, addr)).or_default();
        let mut race = None;
        if let Some((_, wt)) = cell.write {
            if wt != t.id {
                race = Some(format!(
                    "thread {} reads a cell thread {wt} writes in the same barrier phase",
                    t.id
                ));
            }
        }
        if cell.read.is_none() {
            cell.read = Some(t.id);
        }
        if let Some(detail) = race {
            self.violate(ViolationKind::SharedRace, pos, detail);
        }
        mix3(TAG_SHARED, addr as u64, t.phase as u64)
    }

    fn shared_write(&mut self, t: &Thread, addr: i64, prov: u64, pos: Pos) {
        let cell = self.shared.entry((t.phase, addr)).or_default();
        let mut race = None;
        if let Some((p0, w0)) = cell.write {
            if p0 != prov {
                race = Some(format!(
                    "threads {w0} and {} write different values to one cell in one barrier phase",
                    t.id
                ));
            }
        }
        if let Some(rt) = cell.read {
            if rt != t.id {
                race = Some(format!(
                    "thread {} writes a cell thread {rt} reads in the same barrier phase",
                    t.id
                ));
            }
        }
        cell.write = Some((prov, t.id));
        if let Some(detail) = race {
            self.violate(ViolationKind::SharedRace, pos, detail);
        }
    }

    fn global_load(&mut self, addr: i64, len: u8, pos: Pos) -> u64 {
        if addr < 0 || addr + (len as i64) > self.buf_len {
            self.violate(
                ViolationKind::GlobalOob,
                pos,
                format!(
                    "load of {len} element(s) at {addr} outside buffer of {} elements",
                    self.buf_len
                ),
            );
            return mix(TAG_GLOBAL, u64::MAX);
        }
        self.ev.loads.push(GlobalAccess { pos, addr, len });
        mix(TAG_GLOBAL, addr as u64)
    }

    fn global_store(&mut self, addr: i64, pos: Pos) {
        if addr < 0 || addr >= self.buf_len {
            self.violate(
                ViolationKind::GlobalOob,
                pos,
                format!(
                    "store at {addr} outside buffer of {} elements",
                    self.buf_len
                ),
            );
            return;
        }
        self.ev.stores.push(GlobalAccess { pos, addr, len: 1 });
    }

    fn coeff_read(&mut self, idx: i64, pos: Pos) -> u64 {
        if idx < 0 || idx >= self.coeff_len {
            self.violate(
                ViolationKind::LocalOob,
                pos,
                format!("coeff[{idx}] outside [0, {})", self.coeff_len),
            );
        }
        mix(TAG_COEFF, Self::clamp(idx, self.coeff_len) as u64)
    }

    // ---- expression evaluation --------------------------------------

    fn lookup(&self, t: &Thread, s: Sym) -> Option<Val> {
        t.scopes.iter().rev().find_map(|sc| sc.get(&s).copied())
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

    fn eval(&mut self, t: &mut Thread, e: &Expr) -> EResult<Val> {
        match e {
            Expr::Num(n) => Ok(Val::Int(*n)),
            Expr::Builtin(b) => Ok(Val::Int(match b {
                Builtin::Tx => t.id as i64 % self.env.block.0,
                Builtin::Ty => t.id as i64 / self.env.block.0,
                Builtin::Bx => self.bx,
                Builtin::By => self.by,
            })),
            Expr::Var(s) => self
                .lookup(t, *s)
                .ok_or_else(|| ee(format!("unknown variable `{}`", self.k.syms.name(*s)))),
            Expr::Neg(x) => match self.eval(t, x)? {
                Val::Int(n) => Ok(Val::Int(n.wrapping_neg())),
                Val::Data(d) => Ok(Val::Data(mix(TAG_NEG, d))),
                other => Err(ee(format!("cannot negate {other:?}"))),
            },
            Expr::CastInt(x) => {
                let v = self.eval(t, x)?;
                let n = self.to_int(v)?;
                Ok(Val::Int(n))
            }
            Expr::CastData(x) => {
                let v = self.eval(t, x)?;
                match v {
                    Val::Data(d) => Ok(Val::Data(d)),
                    Val::Int(n) => Ok(Val::Data(mix(TAG_CONST, n as u64))),
                    other => Err(ee(format!("cannot cast {other:?} to data"))),
                }
            }
            Expr::Lane { var, lane } => match self.lookup(t, *var) {
                Some(Val::Vec(lanes, n)) => {
                    if *lane < n {
                        Ok(Val::Data(lanes[*lane as usize]))
                    } else {
                        Err(ee(format!("lane {lane} of a {n}-lane vector")))
                    }
                }
                _ => Err(ee(format!(
                    "`.{lane}` on non-vector `{}`",
                    self.k.syms.name(*var)
                ))),
            },
            Expr::VecLoad { index, lanes, pos } => {
                let v = self.eval(t, index)?;
                let addr = self.to_int(v)?;
                if addr % (*lanes as i64) != 0 {
                    self.violate(
                        ViolationKind::GlobalOob,
                        *pos,
                        format!("{lanes}-wide vector load at misaligned address {addr}"),
                    );
                }
                let base = self.global_load(addr, *lanes, *pos);
                let mut ls = [0u64; 4];
                for (i, l) in ls.iter_mut().enumerate().take(*lanes as usize) {
                    *l = if i == 0 {
                        base
                    } else {
                        mix(TAG_GLOBAL, (addr + i as i64) as u64)
                    };
                }
                Ok(Val::Vec(ls, *lanes))
            }
            Expr::Bin(op, a, b) => {
                let va = self.eval(t, a)?;
                let vb = self.eval(t, b)?;
                self.eval_bin(*op, va, vb)
            }
            Expr::Index { base, indices, pos } => {
                t.cur_pos = *pos;
                let idx = indices
                    .iter()
                    .map(|ix| {
                        let v = self.eval(t, ix)?;
                        self.to_int(v)
                    })
                    .collect::<EResult<Vec<i64>>>()?;
                self.read_index(t, *base, &idx, *pos)
            }
        }
    }

    fn eval_bin(&mut self, op: BinOp, a: Val, b: Val) -> EResult<Val> {
        if let (Val::Int(x), Val::Int(y)) = (a, b) {
            let r = match op {
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                BinOp::Mul => x.wrapping_mul(y),
                BinOp::Div => {
                    if y == 0 {
                        return Err(ee("integer division by zero"));
                    }
                    x.wrapping_div(y)
                }
                BinOp::Rem => {
                    if y == 0 {
                        return Err(ee("integer remainder by zero"));
                    }
                    x.wrapping_rem(y)
                }
                BinOp::And => x & y,
                BinOp::LAnd => ((x != 0) && (y != 0)) as i64,
                BinOp::Lt => (x < y) as i64,
                BinOp::Le => (x <= y) as i64,
                BinOp::Gt => (x > y) as i64,
                BinOp::Ge => (x >= y) as i64,
                BinOp::Eq => (x == y) as i64,
                BinOp::Ne => (x != y) as i64,
            };
            return Ok(Val::Int(r));
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

    fn read_index(&mut self, t: &mut Thread, base: Base, idx: &[i64], pos: Pos) -> EResult<Val> {
        match base {
            Base::GlobalIn => {
                if idx.len() != 1 {
                    return Err(ee("`in` takes exactly one subscript"));
                }
                Ok(Val::Data(self.global_load(idx[0], 1, pos)))
            }
            Base::GlobalOut => Err(ee("reads from `out` are outside the subset")),
            Base::Coeff => {
                if idx.len() != 1 {
                    return Err(ee("coefficient array takes one subscript"));
                }
                Ok(Val::Data(self.coeff_read(idx[0], pos)))
            }
            Base::Named(s) => {
                if let Some(v) = self.lookup(t, s) {
                    let addr = self.ptr_addr(s, v, idx, pos)?;
                    return Ok(Val::Data(self.shared_read(t, addr, pos)));
                }
                if let Some(arr) = t.locals.get(&s) {
                    let dims = arr.dims.clone();
                    let flat = self.checked_flat(
                        ViolationKind::LocalOob,
                        self.k.syms.name(s),
                        idx,
                        &dims,
                        pos,
                    );
                    return Ok(Val::Data(t.locals[&s].data[flat as usize]));
                }
                if let Some(region) = self.regions.get(&s) {
                    let (rb, rd) = (region.base, region.dims.clone());
                    let flat = self.checked_flat(
                        ViolationKind::SharedOob,
                        self.k.syms.name(s),
                        idx,
                        &rd,
                        pos,
                    );
                    return Ok(Val::Data(self.shared_read(t, rb + flat, pos)));
                }
                Err(ee(format!("unknown array `{}`", self.k.syms.name(s))))
            }
        }
    }

    /// Resolve an index through a `Ptr`/`View` scope value to a flat
    /// shared address, with bounds checks.
    fn ptr_addr(&mut self, s: Sym, v: Val, idx: &[i64], pos: Pos) -> EResult<i64> {
        let name = self.k.syms.name(s).to_string();
        match v {
            Val::Ptr { addr, row_rem } => {
                if idx.len() != 1 {
                    return Err(ee(format!("pointer `{name}` takes one subscript")));
                }
                let k = idx[0];
                if k < 0 || k >= row_rem {
                    self.violate(
                        ViolationKind::SharedOob,
                        pos,
                        format!("{name}[{k}]: lane store crosses a shared-memory row ({row_rem} elements remain)"),
                    );
                }
                Ok(addr + Self::clamp(k, row_rem))
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
                    self.violate(
                        ViolationKind::SharedOob,
                        pos,
                        format!("{name}[…][{i1}]: column outside [0, {row_len})"),
                    );
                }
                let flat = i0 * row_len + Self::clamp(i1, row_len);
                if flat < 0 || flat >= extent {
                    self.violate(
                        ViolationKind::SharedOob,
                        pos,
                        format!(
                            "{name}[{i0}][{i1}]: outside the selected buffer of {extent} elements"
                        ),
                    );
                }
                Ok(base + Self::clamp(flat, extent))
            }
            other => Err(ee(format!("`{name}` ({other:?}) is not indexable"))),
        }
    }

    // ---- statements --------------------------------------------------

    fn exec_block(&mut self, t: &mut Thread, body: &[Stmt]) -> EResult<()> {
        t.scopes.push(HashMap::new());
        let r = self.exec_stmts(t, body);
        t.scopes.pop();
        r
    }

    fn exec_stmts(&mut self, t: &mut Thread, body: &[Stmt]) -> EResult<()> {
        for s in body {
            self.exec_stmt(t, s)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, t: &mut Thread, s: &Stmt) -> EResult<()> {
        t.steps += 1;
        if t.steps > self.env.step_budget {
            return Err(ee("per-thread statement budget exhausted"));
        }
        match s {
            Stmt::Nop => Ok(()),
            Stmt::Barrier { pos } => {
                t.phase += 1;
                t.trace.push(*pos);
                Ok(())
            }
            Stmt::DeclScalar { name, init } => {
                let v = self.eval(t, init)?;
                t.scopes.last_mut().unwrap().insert(*name, v);
                Ok(())
            }
            Stmt::DeclArray { name, dims } => {
                let extent: i64 = dims.iter().product();
                if extent <= 0 || extent > 1 << 20 {
                    return Err(ee(format!(
                        "local array `{}` has implausible extent {extent}",
                        self.k.syms.name(*name)
                    )));
                }
                let data = (0..extent)
                    .map(|i| mix3(TAG_UNINIT, *name as u64, i as u64))
                    .collect();
                t.locals.insert(
                    *name,
                    LocalArr {
                        dims: dims.clone(),
                        data,
                    },
                );
                Ok(())
            }
            Stmt::DeclPtr {
                name,
                base,
                indices,
                pos,
            } => {
                t.cur_pos = *pos;
                let idx = indices
                    .iter()
                    .map(|ix| {
                        let v = self.eval(t, ix)?;
                        self.to_int(v)
                    })
                    .collect::<EResult<Vec<i64>>>()?;
                let v = if let Some(view) = self.lookup(t, *base) {
                    match view {
                        Val::View {
                            base: vb,
                            extent,
                            row_len,
                        } => {
                            if idx.len() != 2 {
                                return Err(ee("pointer into a view takes two subscripts"));
                            }
                            let flat = idx[0] * row_len + idx[1];
                            if flat < 0 || flat >= extent || idx[1] < 0 || idx[1] >= row_len {
                                self.violate(
                                    ViolationKind::SharedOob,
                                    *pos,
                                    format!(
                                        "&{}[{}][{}] outside the selected buffer",
                                        self.k.syms.name(*base),
                                        idx[0],
                                        idx[1]
                                    ),
                                );
                            }
                            Val::Ptr {
                                addr: vb + Self::clamp(flat, extent),
                                row_rem: (row_len - Self::clamp(idx[1], row_len)).max(1),
                            }
                        }
                        other => {
                            return Err(ee(format!("cannot take a row pointer into {other:?}")))
                        }
                    }
                } else if let Some(region) = self.regions.get(base) {
                    let (rb, rd) = (region.base, region.dims.clone());
                    let flat = self.checked_flat(
                        ViolationKind::SharedOob,
                        self.k.syms.name(*base),
                        &idx,
                        &rd,
                        *pos,
                    );
                    let last_dim = *rd.last().unwrap_or(&1);
                    let last_idx = Self::clamp(idx.last().copied().unwrap_or(0), last_dim);
                    Val::Ptr {
                        addr: rb + flat,
                        row_rem: (last_dim - last_idx).max(1),
                    }
                } else {
                    return Err(ee(format!(
                        "`&{}[…]`: unknown shared array",
                        self.k.syms.name(*base)
                    )));
                };
                t.scopes.last_mut().unwrap().insert(*name, v);
                Ok(())
            }
            Stmt::DeclAlias {
                name,
                base,
                index,
                row_len,
                pos,
            } => {
                t.cur_pos = *pos;
                let region = match self.regions.get(base) {
                    Some(r) => (r.base, r.dims.clone(), r.extent),
                    None => {
                        return Err(ee(format!(
                            "alias base `{}` is not a shared array",
                            self.k.syms.name(*base)
                        )))
                    }
                };
                let (rb, rd, _extent) = region;
                if rd.len() != 3 {
                    return Err(ee("alias base must be a [bufs][rows][cols] array"));
                }
                let v = self.eval(t, index)?;
                let sel = self.to_int(v)?;
                if sel < 0 || sel >= rd[0] {
                    self.violate(
                        ViolationKind::SharedOob,
                        *pos,
                        format!("buffer selector {sel} outside [0, {})", rd[0]),
                    );
                }
                let per_buf = rd[1] * rd[2];
                t.scopes.last_mut().unwrap().insert(
                    *name,
                    Val::View {
                        base: rb + Self::clamp(sel, rd[0]) * per_buf,
                        extent: per_buf,
                        row_len: *row_len,
                    },
                );
                Ok(())
            }
            Stmt::If { cond, body } => {
                let v = self.eval(t, cond)?;
                if self.to_int(v)? != 0 {
                    self.exec_block(t, body)?;
                }
                Ok(())
            }
            Stmt::For {
                var,
                init,
                cond,
                step,
                body,
            } => {
                let v0 = self.eval(t, init)?;
                t.scopes.push(HashMap::new());
                t.scopes.last_mut().unwrap().insert(*var, v0);
                let r = self.run_loop(t, *var, cond, step, body);
                t.scopes.pop();
                r
            }
            Stmt::Assign { lhs, op, rhs, pos } => {
                t.cur_pos = *pos;
                let rv = self.eval(t, rhs)?;
                self.assign(t, lhs, *op, rv, *pos)
            }
        }
    }

    fn run_loop(
        &mut self,
        t: &mut Thread,
        var: Sym,
        cond: &Expr,
        step: &Step,
        body: &[Stmt],
    ) -> EResult<()> {
        loop {
            t.steps += 1;
            if t.steps > self.env.step_budget {
                return Err(ee("per-thread statement budget exhausted in a loop"));
            }
            let c = self.eval(t, cond)?;
            if self.to_int(c)? == 0 {
                return Ok(());
            }
            self.exec_block(t, body)?;
            let cur = match self.lookup(t, var) {
                Some(Val::Int(n)) => n,
                _ => return Err(ee("loop variable lost its integer value")),
            };
            let next = match step {
                Step::Inc => cur + 1,
                Step::Dec => cur - 1,
                Step::AddAssign(e) => {
                    let v = self.eval(t, e)?;
                    cur + self.to_int(v)?
                }
            };
            // The loop scope is the outermost of any block scopes the
            // body pushed and popped; the variable lives there.
            for sc in t.scopes.iter_mut().rev() {
                if let Some(slot) = sc.get_mut(&var) {
                    *slot = Val::Int(next);
                    break;
                }
            }
        }
    }

    fn assign(
        &mut self,
        t: &mut Thread,
        lhs: &LValue,
        op: AssignOp,
        rv: Val,
        pos: Pos,
    ) -> EResult<()> {
        match lhs {
            LValue::Var(s) => {
                let new = match op {
                    AssignOp::Set => rv,
                    AssignOp::Add => {
                        let old = self.lookup(t, *s).ok_or_else(|| {
                            ee(format!("unknown variable `{}`", self.k.syms.name(*s)))
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
                for sc in t.scopes.iter_mut().rev() {
                    if let Some(slot) = sc.get_mut(s) {
                        *slot = new;
                        return Ok(());
                    }
                }
                Err(ee(format!(
                    "assignment to undeclared `{}`",
                    self.k.syms.name(*s)
                )))
            }
            LValue::Index { base, indices } => {
                let idx = indices
                    .iter()
                    .map(|ix| {
                        let v = self.eval(t, ix)?;
                        self.to_int(v)
                    })
                    .collect::<EResult<Vec<i64>>>()?;
                if op != AssignOp::Set {
                    // `+=` is admitted only on per-thread local arrays
                    // (the register-pipeline update in the in-plane
                    // kernels): the desugared read-modify-write needs
                    // no race bookkeeping there. Shared and global
                    // memory stay outside the subset.
                    if let Base::Named(s) = base {
                        if self.lookup(t, *s).is_none() && t.locals.contains_key(s) {
                            let dims = t.locals[s].dims.clone();
                            let flat = self.checked_flat(
                                ViolationKind::LocalOob,
                                self.k.syms.name(*s),
                                &idx,
                                &dims,
                                pos,
                            );
                            let old = t.locals[s].data[flat as usize];
                            let add = self.to_data(rv)?;
                            let mixed = mix3(TAG_OP, mix(op_code(BinOp::Add), old), add);
                            t.locals.get_mut(s).unwrap().data[flat as usize] = mixed;
                            return Ok(());
                        }
                    }
                    return Err(ee("compound assignment to memory is outside the subset"));
                }
                match base {
                    Base::GlobalIn => Err(ee("stores to `in` are outside the subset")),
                    Base::Coeff => {
                        Err(ee("stores to the coefficient array are outside the subset"))
                    }
                    Base::GlobalOut => {
                        if idx.len() != 1 {
                            return Err(ee("`out` takes exactly one subscript"));
                        }
                        let _ = self.to_data(rv)?;
                        self.global_store(idx[0], pos);
                        Ok(())
                    }
                    Base::Named(s) => {
                        let prov = self.to_data(rv)?;
                        if let Some(v) = self.lookup(t, *s) {
                            let addr = self.ptr_addr(*s, v, &idx, pos)?;
                            self.shared_write(t, addr, prov, pos);
                            return Ok(());
                        }
                        if t.locals.contains_key(s) {
                            let dims = t.locals[s].dims.clone();
                            let flat = self.checked_flat(
                                ViolationKind::LocalOob,
                                self.k.syms.name(*s),
                                &idx,
                                &dims,
                                pos,
                            );
                            t.locals.get_mut(s).unwrap().data[flat as usize] = prov;
                            return Ok(());
                        }
                        if let Some(region) = self.regions.get(s) {
                            let (rb, rd) = (region.base, region.dims.clone());
                            let flat = self.checked_flat(
                                ViolationKind::SharedOob,
                                self.k.syms.name(*s),
                                &idx,
                                &rd,
                                pos,
                            );
                            self.shared_write(t, rb + flat, prov, pos);
                            return Ok(());
                        }
                        Err(ee(format!("unknown array `{}`", self.k.syms.name(*s))))
                    }
                }
            }
        }
    }
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

/// Execute every thread of block `(bx, by)` and collect its events.
pub fn run_block(kernel: &Kernel, env: &LaunchEnv, bx: i64, by: i64) -> BlockEvents {
    let mut regions = HashMap::new();
    let mut base = 0i64;
    for d in &kernel.shared {
        let extent: i64 = d.dims.iter().product::<i64>().max(0);
        regions.insert(
            d.name,
            RegionInfo {
                base,
                dims: d.dims.clone(),
                extent,
            },
        );
        base += extent.max(1);
    }
    let coeff_len = kernel.coeff_len.unwrap_or(env.coeff_len);
    let mut it = Interp {
        k: kernel,
        env: *env,
        bx,
        by,
        regions,
        shared: HashMap::new(),
        ev: BlockEvents::default(),
        seen: HashSet::new(),
        buf_len: env.pstride * env.nz,
        coeff_len,
    };

    // Bind the scalar kernel parameters threads read by name.
    let params: [(&str, i64); 5] = [
        ("lx", env.nx),
        ("ly", env.ny),
        ("lz", env.nz),
        ("stride", env.stride),
        ("pstride", env.pstride),
    ];

    let nthreads = (env.block.0 * env.block.1).max(0) as u32;
    let mut canon_trace: Option<Vec<Pos>> = None;
    let mut diverged = false;
    for id in 0..nthreads {
        let mut scope0 = HashMap::new();
        for (name, v) in params {
            if let Some(s) = kernel.syms.lookup(name) {
                scope0.insert(s, Val::Int(v));
            }
        }
        let mut t = Thread {
            id,
            scopes: vec![scope0],
            locals: HashMap::new(),
            phase: 0,
            trace: Vec::new(),
            steps: 0,
            cur_pos: Pos { line: 1, col: 1 },
        };
        let r = it.exec_stmts(&mut t, &kernel.body);
        if let Err(e) = r {
            let kind = if e.msg.contains("budget") {
                ViolationKind::Budget
            } else {
                ViolationKind::Eval
            };
            it.violate(kind, t.cur_pos, format!("thread {id}: {}", e.msg));
        }
        match &canon_trace {
            None => {
                it.ev.barrier_trace = t.trace.clone();
                canon_trace = Some(t.trace);
            }
            Some(c) => {
                if !diverged && *c != t.trace {
                    diverged = true;
                    let pos = c
                        .iter()
                        .zip(&t.trace)
                        .find(|(a, b)| a != b)
                        .map(|(a, _)| *a)
                        .or_else(|| c.get(t.trace.len()).copied())
                        .or_else(|| t.trace.get(c.len()).copied())
                        .unwrap_or(Pos { line: 1, col: 1 });
                    it.violate(
                        ViolationKind::BarrierDivergence,
                        pos,
                        format!(
                            "thread {id} executed {} barrier(s), thread 0 executed {}; first differing site marked",
                            t.trace.len(),
                            c.len()
                        ),
                    );
                }
            }
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
}

//! Concrete lockstep evaluator for the kernel's resolved program.
//!
//! All threads of one block run together against a concrete launch
//! geometry: each statement and expression node is dispatched once and
//! evaluated for every *active lane* — the threads whose control flow
//! reaches it. Index values are plain `i64`; data values are 64-bit
//! *provenance hashes* — a global load yields `hash(GLOBAL, addr)`,
//! arithmetic folds operand hashes, a shared read yields a phase-tagged
//! hash. Provenance is what lets the race check tell a benign re-stage
//! of the same global cell (equal hashes) from a genuine conflict
//! (different hashes).
//!
//! Each lane has its own frame values, local arrays, barrier phase,
//! step count and barrier trace. A divergent `if` or loop condition
//! (`for (g = tid; g < n; g += NT)`) narrows the active set; a lane that
//! raises an evaluation error or exhausts its step budget leaves it for
//! good, at the node where a run of that thread alone would have
//! stopped. A value every lane agrees on — a literal, a block index, a
//! kernel argument, a loop counter over uniform bounds — is computed
//! once and held once, not per lane.
//!
//! The block reports exactly what running its threads one after
//! another, in thread-id order, reports:
//!
//! * **Values.** Every lane computes the values its own run computes. A
//!   shared read yields `hash(SHARED, addr, phase)`, whatever the order,
//!   and shared-memory *writes* never depend on shared-memory *reads*:
//!   staged values come straight from global loads (directly or through
//!   the per-thread pipeline), so thread order cannot change any address
//!   or any written provenance. The race check (K004) is exactly the
//!   condition under which this independence holds.
//! * **Order of findings.** Findings are reported in (thread id, program
//!   order), deduplicated by (kind, site) and capped at
//!   `MAX_VIOLATIONS`. Every candidate is tagged with its thread and a
//!   block-wide clock, which orders one thread's events in its program
//!   order; the earliest candidate per (kind, site) is kept, and the
//!   survivors are sorted by tag and capped.
//! * **Races (K004).** A block first runs keeping, per shared cell, only
//!   the phase it was last read and written in, its writer and the
//!   written provenance. A race-free block never reads a cell another
//!   thread wrote in the phase, writes a cell read in the phase, writes
//!   two values to one cell in one phase, strays outside the laid-out
//!   space or splits its live lanes across phases; such a run reports no
//!   K004. At the first of these events the run is abandoned and the
//!   block runs again with every shared access logged with its tag. Once
//!   no live lane can still be in a barrier phase, that phase's log is
//!   replayed in (thread, program order) — a counting sort by thread —
//!   through the per-cell race rule, so each race message names the
//!   threads a thread-by-thread run names.
//! * **Barriers (K003).** After the block, each lane's barrier trace is
//!   compared with thread 0's, and the first thread that differs is
//!   reported; thread 0's trace is the block's.
//!
//! The evaluator runs the `Program` the parser resolved, so no name is
//! looked up while the block runs. Frame values are kept slot by slot:
//! one value for a uniform slot, else a lane-indexed row typed as
//! integers, data hashes or general values; local arrays per lane.
//! Names are formatted only when a finding or an error is recorded.

use super::ast::{
    AssignOp, BinOp, Builtin, Kernel, Mem, Name, Program, PtrBase, RExpr, RLValue, RStep, RStmt,
    Region, Sym, SymTab, MAX_ARRAY_EXTENT,
};
use super::lexer::Pos;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

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
    /// Global loads from `in`, all threads. Each thread's loads are in
    /// its program order, but threads interleave statement by statement;
    /// the order across threads carries no meaning (the traffic
    /// re-derivation sorts them).
    pub loads: Vec<GlobalAccess>,
    /// Global stores to `out`, in the same interleaving.
    pub stores: Vec<GlobalAccess>,
    /// Violations in (thread id, program order), deduplicated by
    /// (kind, site), capped.
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

/// The integer of a value already checked to be one.
fn int(v: Val) -> i64 {
    match v {
        Val::Int(n) => n,
        _ => 0,
    }
}

fn is_int(v: &Val) -> bool {
    matches!(v, Val::Int(_))
}

fn to_data(v: Val) -> EResult<u64> {
    match v {
        Val::Data(d) => Ok(d),
        Val::Int(n) => Ok(mix(TAG_INT, n as u64)),
        other => Err(ee(format!("expected a data value, found {other:?}"))),
    }
}

/// A lane's declared local array: its cells in the lane's store and its
/// declared dims.
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

/// One shared-memory access, logged for the race replay.
#[derive(Clone, Copy)]
struct Access {
    phase: u32,
    thread: u32,
    /// Block clock at the access.
    time: u64,
    addr: i64,
    /// The written provenance; `None` for a read.
    write: Option<u64>,
    pos: Pos,
}

/// What one thread's own accesses in a phase have done to a shared
/// cell: whether it has read the cell, and the last value it wrote. The
/// replay takes a thread's accesses together, so at each of them the
/// cell holds what the lower threads left, changed only by this.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Own {
    phase: u32,
    read: bool,
    wrote: Option<u64>,
}

/// What a block run that logs no shared access keeps of one shared
/// cell: the phases (plus one; zero for none) it was last read and
/// written in, and that phase's writer and written provenance.
#[derive(Clone, Copy, Default)]
struct PhaseMarks {
    read: u32,
    written: u32,
    /// The writing thread, or [`MANY_WRITERS`].
    writer: u32,
    prov: u64,
}

/// `PhaseMarks::writer` of a cell more than one thread wrote.
const MANY_WRITERS: u32 = u32::MAX;

/// Which race an access completes.
enum Race {
    /// A read of a cell another thread wrote.
    Read,
    /// A write of a cell another thread read.
    WriteRead,
    /// A write of a value other than the cell's last write.
    WriteWrite,
}

/// The race rule's cells for the phase being replayed, and the replay's
/// scratch.
#[derive(Default)]
struct RaceCells {
    /// One cell per address of the laid-out shared space, allocated at
    /// the first replay.
    dense: Vec<Cell>,
    /// Dense cells the current phase touched.
    touched: Vec<usize>,
    /// Addresses outside the laid-out space (formed by broken pointers
    /// or views).
    far: HashMap<i64, Cell>,
    /// Counting-sort scratch: per-thread starts, and the replay order.
    starts: Vec<usize>,
    order: Vec<u32>,
}

/// Why a lane stopped early.
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

/// An expression's values across the active lanes: one value they all
/// hold, or a lane-indexed row. Rows are shared by reference count, so
/// reading a slot does not copy its row; a write copies a row that is
/// still shared.
#[derive(Clone, Debug)]
enum Reg {
    /// One value every active lane holds.
    Uni(Val),
    /// Per lane, an integer.
    Int(Rc<Vec<i64>>),
    /// Per lane, a data value.
    Data(Rc<Vec<u64>>),
    /// Per lane, any value.
    Any(Rc<Vec<Val>>),
}

/// The value left behind when every active lane failed.
const DEAD: Reg = Reg::Uni(Val::Int(0));

impl Reg {
    /// Lane `l`'s value.
    #[inline(always)]
    fn at(&self, l: usize) -> Val {
        match self {
            Reg::Uni(v) => *v,
            Reg::Int(r) => Val::Int(r[l]),
            Reg::Data(r) => Val::Data(r[l]),
            Reg::Any(r) => r[l],
        }
    }

    /// The integers, when every active lane's value is typed as one.
    fn ints(&self) -> Option<Ints<'_>> {
        match self {
            Reg::Uni(Val::Int(x)) => Some(Ints::Uni(*x)),
            Reg::Int(r) => Some(Ints::Row(r)),
            _ => None,
        }
    }

    /// The data values (`to_data`), when no active lane can fail the
    /// conversion.
    fn datas(&self) -> Option<Datas<'_>> {
        match self {
            Reg::Uni(Val::Int(n)) => Some(Datas::Uni(mix(TAG_INT, *n as u64))),
            Reg::Uni(Val::Data(d)) => Some(Datas::Uni(*d)),
            Reg::Int(r) => Some(Datas::Ints(r)),
            Reg::Data(r) => Some(Datas::Row(r)),
            _ => None,
        }
    }
}

/// Integer values of a [`Reg`].
#[derive(Clone, Copy)]
enum Ints<'a> {
    Uni(i64),
    Row(&'a [i64]),
}

impl Ints<'_> {
    #[inline(always)]
    fn at(self, l: usize) -> i64 {
        match self {
            Ints::Uni(x) => x,
            Ints::Row(r) => r[l],
        }
    }
}

/// Data values of a [`Reg`]; integers convert as `to_data` does.
#[derive(Clone, Copy)]
enum Datas<'a> {
    Uni(u64),
    Row(&'a [u64]),
    Ints(&'a [i64]),
}

impl Datas<'_> {
    #[inline(always)]
    fn at(self, l: usize) -> u64 {
        match self {
            Datas::Uni(d) => d,
            Datas::Row(r) => r[l],
            Datas::Ints(r) => mix(TAG_INT, r[l] as u64),
        }
    }
}

/// Run `f` for every active lane: a plain range when every lane is.
#[inline(always)]
fn each(act: &[u32], n: usize, mut f: impl FnMut(usize)) {
    if act.len() == n {
        (0..n).for_each(f);
    } else {
        act.iter().for_each(|&l| f(l as usize));
    }
}

/// `out[l] = f(a[l], b[l])` over the active lanes.
#[inline(always)]
fn int_rows(a: Ints, b: Ints, act: &[u32], n: usize, out: &mut [i64], f: impl Fn(i64, i64) -> i64) {
    each(act, n, |l| out[l] = f(a.at(l), b.at(l)));
}

/// [`int_bin`] over the active lanes, none of which divides by zero.
fn int_bin_rows(op: BinOp, a: Ints, b: Ints, act: &[u32], n: usize, out: &mut [i64]) {
    match op {
        BinOp::Add => int_rows(a, b, act, n, out, i64::wrapping_add),
        BinOp::Sub => int_rows(a, b, act, n, out, i64::wrapping_sub),
        BinOp::Mul => int_rows(a, b, act, n, out, i64::wrapping_mul),
        BinOp::Div => int_rows(a, b, act, n, out, |x, y| {
            if y == 0 {
                0
            } else {
                x.wrapping_div(y)
            }
        }),
        BinOp::Rem => int_rows(a, b, act, n, out, |x, y| {
            if y == 0 {
                0
            } else {
                x.wrapping_rem(y)
            }
        }),
        BinOp::And => int_rows(a, b, act, n, out, |x, y| x & y),
        BinOp::LAnd => int_rows(a, b, act, n, out, |x, y| ((x != 0) && (y != 0)) as i64),
        BinOp::Lt => int_rows(a, b, act, n, out, |x, y| (x < y) as i64),
        BinOp::Le => int_rows(a, b, act, n, out, |x, y| (x <= y) as i64),
        BinOp::Gt => int_rows(a, b, act, n, out, |x, y| (x > y) as i64),
        BinOp::Ge => int_rows(a, b, act, n, out, |x, y| (x >= y) as i64),
        BinOp::Eq => int_rows(a, b, act, n, out, |x, y| (x == y) as i64),
        BinOp::Ne => int_rows(a, b, act, n, out, |x, y| (x != y) as i64),
    }
}

/// A finding of one thread, tagged for ordering.
struct Found {
    thread: u32,
    /// Block clock when it was found.
    time: u64,
    v: Violation,
}

/// The lanes of one block and everything they share.
struct Exec<'p> {
    p: &'p Program,
    syms: &'p SymTab,
    regions: &'p [Region],
    env: LaunchEnv,
    bx: i64,
    by: i64,
    buf_len: i64,
    coeff_len: i64,
    /// Size of the laid-out shared address space.
    extent: usize,
    /// Lanes in the block; lane `l` is thread `l`.
    n: usize,
    /// Frame slots: scalars, loop variables, pointers and views.
    slots: Vec<Reg>,
    /// Local arrays of each lane, lane-major by local id.
    locals: Vec<Option<LocalArr<'p>>>,
    /// Per local id, the array every live lane holds, when they agree.
    uni_locals: Vec<Option<LocalArr<'p>>>,
    /// Each lane's local-array cells.
    stores: Vec<Vec<u64>>,
    phase: Vec<u32>,
    trace: Vec<Vec<Pos>>,
    /// Step counts: every active lane takes each step, so a lane's
    /// count is `steps` less the steps it sat out, `lag`.
    steps: u64,
    lag: Vec<u64>,
    /// The step at which each lane last left a loop.
    left: Vec<u64>,
    /// Each lane's latest access or assignment site, where its error is
    /// reported.
    cur_pos: Vec<Pos>,
    alive: Vec<bool>,
    /// Lanes that have not stopped early.
    live: usize,
    /// Block clock: ticks at every finding and shared access.
    clock: u64,
    found: Vec<Found>,
    /// Index into `found` of each (kind, site)'s earliest finding.
    best: HashMap<(ViolationKind, Pos), usize>,
    /// Whether shared accesses are logged for the race replay. When not,
    /// each laid-out cell keeps only its [`PhaseMarks`], and the run is
    /// abandoned at the first access that could complete a race.
    logged: bool,
    aborted: bool,
    seen: Vec<PhaseMarks>,
    /// Shared accesses of phases not yet replayed.
    log: Vec<Access>,
    /// Per (address, thread), what the thread's accesses since the last
    /// replay have done to the cell.
    own: HashMap<(i64, u32), Own>,
    /// Every (address, thread, [`Own`] before it, written provenance,
    /// site) of an access since the last replay.
    made: HashSet<(i64, u32, Own, Option<u64>, Pos)>,
    race: RaceCells,
    ev: BlockEvents,
}

impl<'p> Exec<'p> {
    // ---- findings -----------------------------------------------------

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Offer `thread`'s finding at block time `time`; the earliest one
    /// per (kind, site) in (thread, time) order is kept.
    fn offer(
        &mut self,
        thread: u32,
        time: u64,
        kind: ViolationKind,
        pos: Pos,
        detail: impl FnOnce() -> String,
    ) {
        match self.best.entry((kind, pos)) {
            Entry::Occupied(e) => {
                let f = &mut self.found[*e.get()];
                if (thread, time) < (f.thread, f.time) {
                    f.thread = thread;
                    f.time = time;
                    f.v.detail = detail();
                }
            }
            Entry::Vacant(e) => {
                e.insert(self.found.len());
                self.found.push(Found {
                    thread,
                    time,
                    v: Violation {
                        kind,
                        pos,
                        detail: detail(),
                    },
                });
            }
        }
    }

    fn violate(
        &mut self,
        lane: usize,
        kind: ViolationKind,
        pos: Pos,
        detail: impl FnOnce() -> String,
    ) {
        let time = self.tick();
        self.offer(lane as u32, time, kind, pos, detail);
    }

    /// Stop `lane` with `e`, reported at its current site.
    fn fail(&mut self, lane: usize, e: &ExecError) {
        let (kind, msg) = match e {
            ExecError::Eval(msg) => (ViolationKind::Eval, msg.as_str()),
            ExecError::Budget(msg) => (ViolationKind::Budget, *msg),
        };
        let pos = self.cur_pos[lane];
        self.violate(lane, kind, pos, || format!("thread {lane}: {msg}"));
        self.alive[lane] = false;
        self.live -= 1;
    }

    /// Stop every active lane with `e`.
    fn fail_all(&mut self, act: &mut Vec<u32>, e: ExecError) -> Reg {
        for &l in act.iter() {
            self.fail(l as usize, &e);
        }
        act.clear();
        DEAD
    }

    /// Drop the lanes that stopped from `act`.
    fn prune(&self, act: &mut Vec<u32>) {
        act.retain(|&l| self.alive[l as usize]);
    }

    // ---- lane values ----------------------------------------------------

    /// Store `r` into slot `s` of the active lanes. A store by every
    /// live lane replaces the slot's value whole; any other store writes
    /// the active lanes of a row that can hold both values.
    fn set_slot(&mut self, s: u32, r: Reg, act: &[u32]) {
        let s = s as usize;
        if act.len() == self.live {
            self.slots[s] = r;
            return;
        }
        let n = self.n;
        let slot = std::mem::replace(&mut self.slots[s], DEAD);
        let mut slot = match (slot, &r) {
            (Reg::Uni(v @ Val::Int(_)), Reg::Int(_) | Reg::Uni(Val::Int(_))) => {
                Reg::Int(Rc::new(vec![int(v); n]))
            }
            (Reg::Uni(Val::Data(d)), Reg::Data(_) | Reg::Uni(Val::Data(_))) => {
                Reg::Data(Rc::new(vec![d; n]))
            }
            (slot @ Reg::Int(_), Reg::Int(_) | Reg::Uni(Val::Int(_)))
            | (slot @ Reg::Data(_), Reg::Data(_) | Reg::Uni(Val::Data(_))) => slot,
            (slot, _) => Reg::Any(Rc::new((0..n).map(|l| slot.at(l)).collect())),
        };
        match (&mut slot, &r) {
            (Reg::Int(dst), _) => {
                let (dst, src) = (Rc::make_mut(dst), r.ints());
                if let Some(src) = src {
                    each(act, n, |l| dst[l] = src.at(l));
                }
            }
            (Reg::Data(dst), _) => {
                let (dst, src) = (Rc::make_mut(dst), r.datas());
                if let Some(src) = src {
                    each(act, n, |l| dst[l] = src.at(l));
                }
            }
            (Reg::Any(dst), _) => {
                let dst = Rc::make_mut(dst);
                each(act, n, |l| dst[l] = r.at(l));
            }
            (Reg::Uni(_), _) => {}
        }
        self.slots[s] = slot;
    }

    fn set_pos(&mut self, act: &[u32], pos: Pos) {
        for &l in act {
            self.cur_pos[l as usize] = pos;
        }
    }

    /// Apply `f` in every active lane; lanes where it fails stop.
    fn map(&mut self, r: Reg, act: &mut Vec<u32>, f: impl Fn(Val) -> EResult<Val>) -> Reg {
        if let Reg::Uni(v) = r {
            return match f(v) {
                Ok(v) => Reg::Uni(v),
                Err(e) => self.fail_all(act, e),
            };
        }
        let mut out = vec![Val::Int(0); self.n];
        let mut stopped = false;
        for &l in act.iter() {
            let l = l as usize;
            match f(r.at(l)) {
                Ok(v) => out[l] = v,
                Err(e) => {
                    self.fail(l, &e);
                    stopped = true;
                }
            }
        }
        if stopped {
            self.prune(act);
        }
        Reg::Any(Rc::new(out))
    }

    /// Apply `f` lane by lane to `a` and `b`; lanes where it fails stop.
    fn zip(
        &mut self,
        a: Reg,
        b: Reg,
        act: &mut Vec<u32>,
        f: impl Fn(Val, Val) -> EResult<Val>,
    ) -> Reg {
        if let (Reg::Uni(x), Reg::Uni(y)) = (&a, &b) {
            return match f(*x, *y) {
                Ok(v) => Reg::Uni(v),
                Err(e) => self.fail_all(act, e),
            };
        }
        let mut out = vec![Val::Int(0); self.n];
        let mut stopped = false;
        for &l in act.iter() {
            let l = l as usize;
            match f(a.at(l), b.at(l)) {
                Ok(v) => out[l] = v,
                Err(e) => {
                    self.fail(l, &e);
                    stopped = true;
                }
            }
        }
        if stopped {
            self.prune(act);
        }
        Reg::Any(Rc::new(out))
    }

    /// Stop the lanes where `r` fails `ok`, with `err` of the value.
    fn require(
        &mut self,
        r: Reg,
        act: &mut Vec<u32>,
        ok: impl Fn(&Val) -> bool,
        err: impl Fn(Val) -> ExecError,
    ) -> Reg {
        if let Reg::Uni(v) = r {
            return if ok(&v) {
                r
            } else {
                self.fail_all(act, err(v))
            };
        }
        let mut stopped = false;
        for &l in act.iter() {
            let v = r.at(l as usize);
            if !ok(&v) {
                self.fail(l as usize, &err(v));
                stopped = true;
            }
        }
        if stopped {
            self.prune(act);
        }
        r
    }

    fn check_int(&mut self, r: Reg, act: &mut Vec<u32>) -> Reg {
        if r.ints().is_some() {
            return r;
        }
        self.require(r, act, is_int, |v| {
            ee(format!("expected an integer value, found {v:?}"))
        })
    }

    fn slot_name(&self, slot: u32) -> &'p str {
        self.syms.name(self.p.slot_names[slot as usize])
    }

    // ---- memory -----------------------------------------------------------

    fn clamp(v: i64, hi: i64) -> i64 {
        v.clamp(0, hi.max(1) - 1)
    }

    /// Per-dimension bounds check; returns the clamped flat offset.
    fn checked_flat(
        &mut self,
        lane: usize,
        kind: ViolationKind,
        sym: Sym,
        idx: &[i64],
        dims: &[i64],
        pos: Pos,
    ) -> i64 {
        let syms = self.syms;
        let mut flat = 0i64;
        if idx.len() != dims.len() {
            self.violate(lane, kind, pos, || {
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
                self.violate(lane, kind, pos, || {
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
    fn local_cell(
        &mut self,
        lane: usize,
        a: LocalArr<'p>,
        sym: Sym,
        idx: &[i64],
        pos: Pos,
    ) -> usize {
        let flat = self.checked_flat(lane, ViolationKind::LocalOob, sym, idx, a.dims, pos);
        // Only dims of mixed sign can carry the clamped offset outside.
        a.off + flat.clamp(0, a.len as i64 - 1) as usize
    }

    /// The flat shared address of `region[idx…]`, with bounds checks.
    fn region_addr(&mut self, lane: usize, region: u32, sym: Sym, idx: &[i64], pos: Pos) -> i64 {
        let regions = self.regions;
        let r = &regions[region as usize];
        let flat = self.checked_flat(lane, ViolationKind::SharedOob, sym, idx, &r.dims, pos);
        r.base.wrapping_add(flat)
    }

    /// `lane`'s declared local array `id`, if any.
    fn local(&self, lane: usize, id: Option<u32>) -> Option<LocalArr<'p>> {
        id.and_then(|id| self.locals[lane * self.p.locals + id as usize])
    }

    /// The cell of `id[subs…]` shared by every active lane: the array is
    /// declared alike in every live lane and the subscripts are uniform.
    /// Every lane would report the same bounds findings, so only the
    /// lowest lane's, the one that can survive, are offered.
    fn uniform_cell(
        &mut self,
        id: Option<u32>,
        sym: Sym,
        subs: &[Reg],
        pos: Pos,
        act: &[u32],
    ) -> Option<usize> {
        let a = id.and_then(|id| self.uni_locals[id as usize])?;
        let mut idx = [0i64; 4];
        for (d, s) in subs.iter().enumerate() {
            match (s, idx.get_mut(d)) {
                (Reg::Uni(Val::Int(x)), Some(i)) => *i = *x,
                _ => return None,
            }
        }
        Some(self.local_cell(act[0] as usize, a, sym, &idx[..subs.len()], pos))
    }

    /// The marks of laid-out shared cell `addr`, in a run that logs no
    /// access. Any other address abandons such a run.
    fn marks(&mut self, addr: i64) -> Option<&mut PhaseMarks> {
        if addr < 0 || addr as usize >= self.extent {
            self.aborted = true;
            return None;
        }
        if self.seen.is_empty() {
            self.seen = vec![PhaseMarks::default(); self.extent];
        }
        Some(&mut self.seen[addr as usize])
    }

    fn shared_read(&mut self, lane: usize, addr: i64, pos: Pos) -> u64 {
        let phase = self.phase[lane];
        let hash = mix3(TAG_SHARED, addr as u64, phase as u64);
        if !self.logged {
            if let Some(m) = self.marks(addr) {
                // A cell another thread wrote in this phase races.
                let races = m.written == phase + 1 && m.writer != lane as u32;
                m.read = phase + 1;
                self.aborted |= races;
            }
            return hash;
        }
        let time = self.tick();
        self.log_access(Access {
            phase,
            thread: lane as u32,
            time,
            addr,
            write: None,
            pos,
        });
        hash
    }

    fn shared_write(&mut self, lane: usize, addr: i64, prov: u64, pos: Pos) {
        let phase = self.phase[lane];
        if !self.logged {
            if let Some(m) = self.marks(addr) {
                // A cell read in this phase, or written with another
                // value, may race.
                let races = m.read == phase + 1 || (m.written == phase + 1 && m.prov != prov);
                if m.written != phase + 1 {
                    m.writer = lane as u32;
                } else if m.writer != lane as u32 {
                    m.writer = MANY_WRITERS;
                }
                m.written = phase + 1;
                m.prov = prov;
                self.aborted |= races;
            }
            return;
        }
        let time = self.tick();
        self.log_access(Access {
            phase,
            thread: lane as u32,
            time,
            addr,
            write: Some(prov),
            pos,
        });
    }

    /// Append `a` to the race log, unless it repeats an access its thread
    /// made to the cell earlier in the phase — the same read, or write of
    /// the same value, at the same site, with the same [`Own`] before it
    /// — and leaves its `Own` as it found it. Such a repeat finds the
    /// cell as its twin did, so it can only find again what its twin
    /// found at that site, and it changes nothing. Dropping it bounds the
    /// log of a loop whose accesses repeat their values.
    fn log_access(&mut self, a: Access) {
        let fresh = Own {
            phase: a.phase,
            read: false,
            wrote: None,
        };
        let own = self.own.entry((a.addr, a.thread)).or_insert(fresh);
        if own.phase != a.phase {
            *own = fresh;
        }
        let before = *own;
        match a.write {
            None => own.read = true,
            Some(prov) => own.wrote = Some(prov),
        }
        let new = self.made.insert((a.addr, a.thread, before, a.write, a.pos));
        if new || *own != before {
            self.log.push(a);
        }
    }

    fn global_load(&mut self, lane: usize, addr: i64, len: u8, pos: Pos) -> u64 {
        let buf_len = self.buf_len;
        if addr < 0 || addr.checked_add(len as i64).is_none_or(|end| end > buf_len) {
            self.violate(lane, ViolationKind::GlobalOob, pos, || {
                format!("load of {len} element(s) at {addr} outside buffer of {buf_len} elements")
            });
            return mix(TAG_GLOBAL, u64::MAX);
        }
        self.ev.loads.push(GlobalAccess { pos, addr, len });
        mix(TAG_GLOBAL, addr as u64)
    }

    fn global_store(&mut self, lane: usize, addr: i64, pos: Pos) {
        let buf_len = self.buf_len;
        if addr < 0 || addr >= buf_len {
            self.violate(lane, ViolationKind::GlobalOob, pos, || {
                format!("store at {addr} outside buffer of {buf_len} elements")
            });
            return;
        }
        self.ev.stores.push(GlobalAccess { pos, addr, len: 1 });
    }

    fn coeff_read(&mut self, lane: usize, idx: i64, pos: Pos) -> u64 {
        let coeff_len = self.coeff_len;
        if idx < 0 || idx >= coeff_len {
            self.violate(lane, ViolationKind::LocalOob, pos, || {
                format!("coeff[{idx}] outside [0, {coeff_len})")
            });
        }
        mix(TAG_COEFF, Self::clamp(idx, coeff_len) as u64)
    }

    /// Resolve an index through the `Ptr`/`View` `v` in `slot` to a flat
    /// shared address, with bounds checks.
    fn ptr_addr(&mut self, lane: usize, slot: u32, v: Val, idx: &[i64], pos: Pos) -> EResult<i64> {
        let name = self.slot_name(slot);
        match v {
            Val::Ptr { addr, row_rem } => {
                if idx.len() != 1 {
                    return Err(ee(format!("pointer `{name}` takes one subscript")));
                }
                let k = idx[0];
                if k < 0 || k >= row_rem {
                    self.violate(lane, ViolationKind::SharedOob, pos, || {
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
                    self.violate(lane, ViolationKind::SharedOob, pos, || {
                        format!("{name}[…][{i1}]: column outside [0, {row_len})")
                    });
                }
                let flat = i0
                    .wrapping_mul(row_len)
                    .wrapping_add(Self::clamp(i1, row_len));
                if flat < 0 || flat >= extent {
                    self.violate(lane, ViolationKind::SharedOob, pos, || {
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

    // ---- race replay --------------------------------------------------------

    /// Replay every logged phase no live lane can still be in.
    fn flush_settled(&mut self) {
        if self.log.is_empty() {
            return;
        }
        let settled = (0..self.n)
            .filter(|&l| self.alive[l])
            .map(|l| self.phase[l] as u64)
            .min()
            .unwrap_or(u64::MAX);
        self.flush(settled);
    }

    /// Replay the logged accesses of the phases below `upto`.
    fn flush(&mut self, upto: u64) {
        let mut log = std::mem::take(&mut self.log);
        let mut kept = Vec::new();
        if log.iter().any(|a| a.phase as u64 >= upto) {
            (log, kept) = log.into_iter().partition(|a| (a.phase as u64) < upto);
        }
        // Stable, and linear on the usual log of one phase.
        log.sort_by_key(|a| a.phase);
        for phase in log.chunk_by(|a, b| a.phase == b.phase) {
            self.replay(phase);
        }
        log.clear();
        self.log = if kept.is_empty() { log } else { kept };
        self.own.clear();
        self.made.clear();
    }

    /// Run one phase's accesses through the race rule in (thread,
    /// program order): a counting sort by thread keeps each thread's
    /// accesses in the order it logged them.
    fn replay(&mut self, accesses: &[Access]) {
        // Reads race only with writes: a phase without writes is clean.
        if accesses.iter().all(|a| a.write.is_none()) {
            return;
        }
        let n = self.n;
        let mut starts = std::mem::take(&mut self.race.starts);
        let mut order = std::mem::take(&mut self.race.order);
        starts.clear();
        starts.resize(n + 1, 0);
        for a in accesses {
            starts[a.thread as usize + 1] += 1;
        }
        for t in 0..n {
            starts[t + 1] += starts[t];
        }
        order.clear();
        order.resize(accesses.len(), 0);
        for (i, a) in accesses.iter().enumerate() {
            let t = a.thread as usize;
            order[starts[t]] = i as u32;
            starts[t] += 1;
        }
        if self.race.dense.is_empty() {
            self.race.dense = vec![Cell::EMPTY; self.extent];
        }
        for &i in &order {
            self.race_step(&accesses[i as usize]);
        }
        let RaceCells {
            dense,
            touched,
            far,
            ..
        } = &mut self.race;
        for &c in touched.iter() {
            dense[c] = Cell::EMPTY;
        }
        touched.clear();
        far.clear();
        self.race.starts = starts;
        self.race.order = order;
    }

    /// One access through the race rule of its cell.
    fn race_step(&mut self, a: &Access) {
        let RaceCells {
            dense,
            touched,
            far,
            ..
        } = &mut self.race;
        let cell = if a.addr >= 0 && (a.addr as usize) < dense.len() {
            let i = a.addr as usize;
            let c = &mut dense[i];
            if c.writer == NO_THREAD && c.reader == NO_THREAD {
                touched.push(i);
            }
            c
        } else {
            far.entry(a.addr).or_insert(Cell::EMPTY)
        };
        let id = a.thread;
        let race = match a.write {
            None => {
                let writer = cell.writer;
                if cell.reader == NO_THREAD {
                    cell.reader = id;
                }
                (writer != NO_THREAD && writer != id).then_some((writer, Race::Read))
            }
            Some(prov) => {
                // A read-write conflict outranks a write-write one.
                let mut race = None;
                if cell.writer != NO_THREAD && cell.prov != prov {
                    race = Some((cell.writer, Race::WriteWrite));
                }
                if cell.reader != NO_THREAD && cell.reader != id {
                    race = Some((cell.reader, Race::WriteRead));
                }
                cell.prov = prov;
                cell.writer = id;
                race
            }
        };
        if let Some((other, race)) = race {
            self.offer(id, a.time, ViolationKind::SharedRace, a.pos, || match race {
                Race::Read => format!(
                    "thread {id} reads a cell thread {other} writes in the same barrier phase"
                ),
                Race::WriteRead => format!(
                    "thread {id} writes a cell thread {other} reads in the same barrier phase"
                ),
                Race::WriteWrite => format!(
                    "threads {other} and {id} write different values to one cell in one barrier phase"
                ),
            });
        }
    }

    // ---- expressions ------------------------------------------------------

    /// Evaluate `e` in the active lanes. Lanes that fail leave `act`;
    /// the result holds for the lanes that remain.
    fn eval(&mut self, e: &'p RExpr, act: &mut Vec<u32>) -> Reg {
        match e {
            RExpr::Num(n) => Reg::Uni(Val::Int(*n)),
            RExpr::Var(Name::Slot(s)) => self.slots[*s as usize].clone(),
            RExpr::Var(Name::Unbound(sym)) => {
                let name = self.syms.name(*sym);
                self.fail_all(act, ee(format!("unknown variable `{name}`")))
            }
            RExpr::Builtin(b) => match b {
                Builtin::Bx => Reg::Uni(Val::Int(self.bx)),
                Builtin::By => Reg::Uni(Val::Int(self.by)),
                Builtin::Tx | Builtin::Ty => {
                    let w = self.env.block.0;
                    let mut out = vec![0; self.n];
                    for &l in act.iter() {
                        let id = l as i64;
                        out[l as usize] = if *b == Builtin::Tx { id % w } else { id / w };
                    }
                    Reg::Int(Rc::new(out))
                }
            },
            RExpr::Neg(x) => {
                let r = self.eval(x, act);
                match &r {
                    Reg::Int(a) => {
                        let mut out = vec![0; self.n];
                        each(act, self.n, |l| out[l] = a[l].wrapping_neg());
                        Reg::Int(Rc::new(out))
                    }
                    Reg::Data(a) => {
                        let mut out = vec![0; self.n];
                        each(act, self.n, |l| out[l] = mix(TAG_NEG, a[l]));
                        Reg::Data(Rc::new(out))
                    }
                    _ => self.map(r, act, |v| match v {
                        Val::Int(n) => Ok(Val::Int(n.wrapping_neg())),
                        Val::Data(d) => Ok(Val::Data(mix(TAG_NEG, d))),
                        other => Err(ee(format!("cannot negate {other:?}"))),
                    }),
                }
            }
            RExpr::CastInt(x) => {
                let r = self.eval(x, act);
                self.check_int(r, act)
            }
            RExpr::CastData(x) => {
                let r = self.eval(x, act);
                match &r {
                    Reg::Data(_) => r,
                    Reg::Int(a) => {
                        let mut out = vec![0; self.n];
                        each(act, self.n, |l| out[l] = mix(TAG_CONST, a[l] as u64));
                        Reg::Data(Rc::new(out))
                    }
                    _ => self.map(r, act, |v| match v {
                        Val::Data(d) => Ok(Val::Data(d)),
                        Val::Int(n) => Ok(Val::Data(mix(TAG_CONST, n as u64))),
                        other => Err(ee(format!("cannot cast {other:?} to data"))),
                    }),
                }
            }
            RExpr::Lane { var, lane } => {
                let lane = *lane;
                let s = match *var {
                    Name::Slot(s) => s,
                    Name::Unbound(sym) => {
                        let name = self.syms.name(sym);
                        return self.fail_all(act, ee(format!("`.{lane}` on non-vector `{name}`")));
                    }
                };
                let name = self.slot_name(s);
                let r = self.slots[s as usize].clone();
                let mut out = vec![0; self.n];
                let mut stopped = false;
                for &l in act.iter() {
                    let l = l as usize;
                    match r.at(l) {
                        Val::Vec(lanes, n) if lane < n => out[l] = lanes[lane as usize],
                        Val::Vec(_, n) => {
                            self.fail(l, &ee(format!("lane {lane} of a {n}-lane vector")));
                            stopped = true;
                        }
                        _ => {
                            self.fail(l, &ee(format!("`.{lane}` on non-vector `{name}`")));
                            stopped = true;
                        }
                    }
                }
                if stopped {
                    self.prune(act);
                }
                Reg::Data(Rc::new(out))
            }
            RExpr::VecLoad { index, lanes, pos } => {
                let r = self.eval(index, act);
                let r = self.check_int(r, act);
                let (lanes, pos) = (*lanes, *pos);
                let mut out = vec![Val::Int(0); self.n];
                for &l in act.iter() {
                    let l = l as usize;
                    let addr = int(r.at(l));
                    if addr % (lanes as i64) != 0 {
                        self.violate(l, ViolationKind::GlobalOob, pos, || {
                            format!("{lanes}-wide vector load at misaligned address {addr}")
                        });
                    }
                    let base = self.global_load(l, addr, lanes, pos);
                    let mut ls = [0u64; 4];
                    for (i, v) in ls.iter_mut().enumerate().take(lanes as usize) {
                        *v = if i == 0 {
                            base
                        } else {
                            mix(TAG_GLOBAL, addr.wrapping_add(i as i64) as u64)
                        };
                    }
                    out[l] = Val::Vec(ls, lanes);
                }
                Reg::Any(Rc::new(out))
            }
            RExpr::Bin(op, a, b) => {
                let ra = self.eval(a, act);
                if act.is_empty() {
                    return DEAD;
                }
                let rb = self.eval(b, act);
                self.bin(*op, ra, rb, act)
            }
            RExpr::Index { mem, indices, pos } => {
                self.set_pos(act, *pos);
                let subs = self.subscripts(indices, act);
                self.read_index(*mem, &subs, *pos, act)
            }
        }
    }

    /// `a op b` in every active lane: integer and data rows in typed
    /// loops, anything else (and any division by zero) value by value.
    fn bin(&mut self, op: BinOp, a: Reg, b: Reg, act: &mut Vec<u32>) -> Reg {
        let n = self.n;
        if let (Reg::Uni(x), Reg::Uni(y)) = (&a, &b) {
            return match eval_bin(op, *x, *y) {
                Ok(v) => Reg::Uni(v),
                Err(e) => self.fail_all(act, e),
            };
        }
        if let (Some(x), Some(y)) = (a.ints(), b.ints()) {
            let divides = matches!(op, BinOp::Div | BinOp::Rem);
            if !(divides && act.iter().any(|&l| y.at(l as usize) == 0)) {
                let mut out = vec![0; n];
                int_bin_rows(op, x, y, act, n, &mut out);
                return Reg::Int(Rc::new(out));
            }
        } else if let (Some(x), Some(y), BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div) =
            (a.datas(), b.datas(), op)
        {
            let code = op_code(op);
            let f = |x: u64, y: u64| mix3(TAG_OP, mix(code, x), y);
            let mut out = vec![0; n];
            each(act, n, |l| out[l] = f(x.at(l), y.at(l)));
            return Reg::Data(Rc::new(out));
        }
        self.zip(a, b, act, |x, y| eval_bin(op, x, y))
    }

    /// Evaluate each subscript, in order, to an integer.
    fn subscripts(&mut self, indices: &'p [RExpr], act: &mut Vec<u32>) -> Vec<Reg> {
        let mut subs = Vec::with_capacity(indices.len());
        for ix in indices {
            let r = self.eval(ix, act);
            subs.push(self.check_int(r, act));
        }
        subs
    }

    fn read_index(&mut self, mem: Mem, subs: &[Reg], pos: Pos, act: &mut Vec<u32>) -> Reg {
        if act.is_empty() {
            return DEAD;
        }
        match mem {
            Mem::GlobalIn => {
                if subs.len() != 1 {
                    return self.fail_all(act, ee("`in` takes exactly one subscript"));
                }
                let mut out = vec![0; self.n];
                for &l in act.iter() {
                    let l = l as usize;
                    out[l] = self.global_load(l, int(subs[0].at(l)), 1, pos);
                }
                Reg::Data(Rc::new(out))
            }
            Mem::GlobalOut => self.fail_all(act, ee("reads from `out` are outside the subset")),
            Mem::Coeff => {
                if subs.len() != 1 {
                    return self.fail_all(act, ee("coefficient array takes one subscript"));
                }
                let mut out = vec![0; self.n];
                for &l in act.iter() {
                    let l = l as usize;
                    out[l] = self.coeff_read(l, int(subs[0].at(l)), pos);
                }
                Reg::Data(Rc::new(out))
            }
            Mem::Scoped(slot) => {
                let pv = self.slots[slot as usize].clone();
                let mut out = vec![0; self.n];
                let mut idx = Vec::with_capacity(subs.len());
                let mut stopped = false;
                for &l in act.iter() {
                    let l = l as usize;
                    gather(subs, l, &mut idx);
                    match self.ptr_addr(l, slot, pv.at(l), &idx, pos) {
                        Ok(addr) => out[l] = self.shared_read(l, addr, pos),
                        Err(e) => {
                            self.fail(l, &e);
                            stopped = true;
                        }
                    }
                }
                if stopped {
                    self.prune(act);
                }
                Reg::Data(Rc::new(out))
            }
            Mem::Array { sym, local, region } => {
                let mut out = vec![0; self.n];
                if let Some(cell) = self.uniform_cell(local, sym, subs, pos, act) {
                    let stores = &self.stores;
                    each(act, self.n, |l| out[l] = stores[l][cell]);
                    return Reg::Data(Rc::new(out));
                }
                let mut idx = Vec::with_capacity(subs.len());
                let mut stopped = false;
                for &l in act.iter() {
                    let l = l as usize;
                    gather(subs, l, &mut idx);
                    if let Some(a) = self.local(l, local) {
                        let cell = self.local_cell(l, a, sym, &idx, pos);
                        out[l] = self.stores[l][cell];
                    } else if let Some(region) = region {
                        let addr = self.region_addr(l, region, sym, &idx, pos);
                        out[l] = self.shared_read(l, addr, pos);
                    } else {
                        let name = self.syms.name(sym);
                        self.fail(l, &ee(format!("unknown array `{name}`")));
                        stopped = true;
                    }
                }
                if stopped {
                    self.prune(act);
                }
                Reg::Data(Rc::new(out))
            }
        }
    }

    // ---- statements ---------------------------------------------------------

    fn exec_block(&mut self, body: &'p [RStmt], act: &mut Vec<u32>) {
        for s in body {
            if act.is_empty() || self.aborted {
                return;
            }
            self.exec_stmt(s, act);
        }
    }

    /// Take one step in every active lane; lanes past the budget stop.
    fn step(&mut self, act: &mut Vec<u32>, msg: &'static str) {
        self.steps += 1;
        let budget = self.env.step_budget;
        if self.steps <= budget {
            return;
        }
        let mut over = false;
        for &l in act.iter() {
            if self.steps - self.lag[l as usize] > budget {
                self.fail(l as usize, &ExecError::Budget(msg));
                over = true;
            }
        }
        if over {
            self.prune(act);
        }
    }

    fn exec_stmt(&mut self, s: &'p RStmt, act: &mut Vec<u32>) {
        self.step(act, "per-thread statement budget exhausted");
        if act.is_empty() {
            return;
        }
        match s {
            RStmt::Nop => {}
            RStmt::Barrier { pos } => {
                for &l in act.iter() {
                    self.phase[l as usize] += 1;
                    self.trace[l as usize].push(*pos);
                }
                // Once live lanes part phases, one mark per cell no
                // longer tells the phases apart.
                self.aborted |= !self.logged && act.len() != self.live;
                self.flush_settled();
            }
            RStmt::DeclScalar { slot, init } => {
                let r = self.eval(init, act);
                self.set_slot(*slot, r, act);
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
                        let msg = format!(
                            "local array `{}` has implausible extent {e}",
                            self.syms.name(*name)
                        );
                        self.fail_all(act, ee(msg));
                        return;
                    }
                    None => {
                        let msg = format!(
                            "local array `{}` has implausible extent: the product of its dims {dims:?} overflows",
                            self.syms.name(*name)
                        );
                        self.fail_all(act, ee(msg));
                        return;
                    }
                };
                let init: Vec<u64> = (0..len)
                    .map(|i| mix3(TAG_UNINIT, *name as u64, i as u64))
                    .collect();
                let mut uniform = act.len() == self.live;
                let mut first = None;
                for &l in act.iter() {
                    let l = l as usize;
                    let id = l * self.p.locals + *local as usize;
                    let store = &mut self.stores[l];
                    let (off, cap) = match self.locals[id] {
                        Some(a) if a.cap >= len => (a.off, a.cap),
                        _ => {
                            let off = store.len();
                            store.resize(off + len, 0);
                            (off, len)
                        }
                    };
                    store[off..off + len].copy_from_slice(&init);
                    let a = LocalArr {
                        off,
                        len,
                        cap,
                        dims,
                    };
                    self.locals[id] = Some(a);
                    let key = (off, len, cap);
                    uniform &= *first.get_or_insert(key) == key;
                }
                let first = act[0] as usize * self.p.locals + *local as usize;
                self.uni_locals[*local as usize] = if uniform { self.locals[first] } else { None };
            }
            RStmt::DeclPtr {
                slot,
                base,
                indices,
                pos,
            } => {
                self.set_pos(act, *pos);
                let subs = self.subscripts(indices, act);
                let r = self.row_pointer(*base, &subs, *pos, act);
                self.set_slot(*slot, r, act);
            }
            RStmt::DeclAlias {
                slot,
                base,
                region,
                index,
                row_len,
                pos,
            } => {
                self.set_pos(act, *pos);
                let Some(region) = region else {
                    let msg = format!(
                        "alias base `{}` is not a shared array",
                        self.syms.name(*base)
                    );
                    self.fail_all(act, ee(msg));
                    return;
                };
                let regions = self.regions;
                let r = &regions[*region as usize];
                let (rb, rd) = (r.base, &r.dims);
                if rd.len() != 3 {
                    self.fail_all(act, ee("alias base must be a [bufs][rows][cols] array"));
                    return;
                }
                let v = self.eval(index, act);
                let v = self.check_int(v, act);
                if act.is_empty() {
                    return;
                }
                let (bufs, per_buf, row_len) = (rd[0], rd[1].wrapping_mul(rd[2]), *row_len);
                let view = |sel: i64| Val::View {
                    base: rb.wrapping_add(Self::clamp(sel, bufs).wrapping_mul(per_buf)),
                    extent: per_buf,
                    row_len,
                };
                let oob = |sel: i64| move || format!("buffer selector {sel} outside [0, {bufs})");
                if let Reg::Uni(Val::Int(sel)) = v {
                    if sel < 0 || sel >= bufs {
                        // Of the lanes' identical findings only the
                        // lowest lane's can be reported.
                        self.violate(act[0] as usize, ViolationKind::SharedOob, *pos, oob(sel));
                    }
                    self.set_slot(*slot, Reg::Uni(view(sel)), act);
                    return;
                }
                let mut out = vec![Val::Int(0); self.n];
                for &l in act.iter() {
                    let l = l as usize;
                    let sel = int(v.at(l));
                    if sel < 0 || sel >= bufs {
                        self.violate(l, ViolationKind::SharedOob, *pos, oob(sel));
                    }
                    out[l] = view(sel);
                }
                self.set_slot(*slot, Reg::Any(Rc::new(out)), act);
            }
            RStmt::If { cond, body } => {
                let c = self.eval(cond, act);
                let c = self.check_int(c, act);
                if let Reg::Uni(v) = c {
                    if int(v) != 0 {
                        self.exec_block(body, act);
                    }
                    return;
                }
                let mut taken: Vec<u32> = act
                    .iter()
                    .copied()
                    .filter(|&l| int(c.at(l as usize)) != 0)
                    .collect();
                if taken.len() == act.len() {
                    self.exec_block(body, act);
                } else if !taken.is_empty() {
                    let (live, steps) = (self.live, self.steps);
                    self.exec_block(body, &mut taken);
                    // The lanes that skipped the body sat its steps out.
                    let skipped = self.steps - steps;
                    let mut t = taken.iter().peekable();
                    for &l in act.iter() {
                        if t.next_if_eq(&&l).is_none() {
                            self.lag[l as usize] += skipped;
                        }
                    }
                    if self.live != live {
                        self.prune(act);
                    }
                }
            }
            RStmt::For {
                slot,
                init,
                cond,
                step,
                body,
            } => {
                let r = self.eval(init, act);
                self.set_slot(*slot, r, act);
                if !act.is_empty() {
                    self.run_loop(*slot, cond, step, body, act);
                }
            }
            RStmt::Assign { lhs, op, rhs, pos } => {
                self.set_pos(act, *pos);
                let rv = self.eval(rhs, act);
                if act.is_empty() {
                    return;
                }
                self.assign(lhs, *op, rv, *pos, act);
            }
        }
    }

    /// The `&base[…]` pointer of each active lane.
    fn row_pointer(&mut self, base: PtrBase, subs: &[Reg], pos: Pos, act: &mut Vec<u32>) -> Reg {
        if act.is_empty() {
            return DEAD;
        }
        if let PtrBase::Unbound(sym) = base {
            let msg = format!("`&{}[…]`: unknown shared array", self.syms.name(sym));
            return self.fail_all(act, ee(msg));
        }
        let mut out = vec![Val::Int(0); self.n];
        let mut idx = Vec::with_capacity(subs.len());
        let mut stopped = false;
        for &l in act.iter() {
            let l = l as usize;
            gather(subs, l, &mut idx);
            match self.lane_pointer(l, base, &idx, pos) {
                Ok(v) => out[l] = v,
                Err(e) => {
                    self.fail(l, &e);
                    stopped = true;
                }
            }
        }
        if stopped {
            self.prune(act);
        }
        Reg::Any(Rc::new(out))
    }

    fn lane_pointer(&mut self, l: usize, base: PtrBase, idx: &[i64], pos: Pos) -> EResult<Val> {
        match base {
            PtrBase::Scoped(view) => match self.slots[view as usize].at(l) {
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
                        self.violate(l, ViolationKind::SharedOob, pos, || {
                            format!("&{name}[{i0}][{i1}] outside the selected buffer")
                        });
                    }
                    Ok(Val::Ptr {
                        addr: vb.wrapping_add(Self::clamp(flat, extent)),
                        row_rem: (row_len - Self::clamp(i1, row_len)).max(1),
                    })
                }
                other => Err(ee(format!("cannot take a row pointer into {other:?}"))),
            },
            PtrBase::Region { region, sym } => {
                let addr = self.region_addr(l, region, sym, idx, pos);
                let regions = self.regions;
                let dims = &regions[region as usize].dims;
                let last_dim = *dims.last().unwrap_or(&1);
                let last_idx = Self::clamp(idx.last().copied().unwrap_or(0), last_dim);
                Ok(Val::Ptr {
                    addr,
                    row_rem: (last_dim - last_idx).max(1),
                })
            }
            PtrBase::Unbound(sym) => Err(ee(format!(
                "`&{}[…]`: unknown shared array",
                self.syms.name(sym)
            ))),
        }
    }

    fn run_loop(
        &mut self,
        slot: u32,
        cond: &'p RExpr,
        step: &'p RStep,
        body: &'p [RStmt],
        act: &mut Vec<u32>,
    ) {
        let live = self.live;
        let mut lp = act.clone();
        loop {
            self.step(&mut lp, "per-thread statement budget exhausted in a loop");
            if lp.is_empty() {
                break;
            }
            let c = self.eval(cond, &mut lp);
            let c = self.check_int(c, &mut lp);
            let steps = self.steps;
            match &c {
                Reg::Uni(v) => {
                    if int(*v) == 0 {
                        for &l in lp.iter() {
                            self.left[l as usize] = steps;
                        }
                        lp.clear();
                    }
                }
                _ => {
                    let left = &mut self.left;
                    lp.retain(|&l| {
                        let stays = int(c.at(l as usize)) != 0;
                        if !stays {
                            left[l as usize] = steps;
                        }
                        stays
                    });
                }
            }
            if lp.is_empty() {
                break;
            }
            self.exec_block(body, &mut lp);
            if lp.is_empty() || self.aborted {
                break;
            }
            let cur = self.slots[slot as usize].clone();
            let cur = self.require(cur, &mut lp, is_int, |_| {
                ee("loop variable lost its integer value")
            });
            let next = match step {
                RStep::Inc => self.bin(BinOp::Add, cur, Reg::Uni(Val::Int(1)), &mut lp),
                RStep::Dec => self.bin(BinOp::Sub, cur, Reg::Uni(Val::Int(1)), &mut lp),
                RStep::AddAssign(e) => {
                    let d = self.eval(e, &mut lp);
                    let d = self.check_int(d, &mut lp);
                    self.bin(BinOp::Add, cur, d, &mut lp)
                }
            };
            self.set_slot(slot, next, &lp);
        }
        if self.live != live {
            self.prune(act);
        }
        // Each lane sat out the steps the loop took after it left.
        let end = self.steps;
        for &l in act.iter() {
            self.lag[l as usize] += end - self.left[l as usize];
        }
    }

    /// Store `rv` through `lhs` in every active lane.
    fn assign(&mut self, lhs: &'p RLValue, op: AssignOp, rv: Reg, pos: Pos, act: &mut Vec<u32>) {
        match lhs {
            RLValue::Var(Name::Unbound(sym)) => {
                let name = self.syms.name(*sym);
                let msg = match op {
                    AssignOp::Set => format!("assignment to undeclared `{name}`"),
                    AssignOp::Add => format!("unknown variable `{name}`"),
                };
                self.fail_all(act, ee(msg));
            }
            RLValue::Var(Name::Slot(s)) => {
                let new = match op {
                    AssignOp::Set => rv,
                    AssignOp::Add => {
                        let old = self.slots[*s as usize].clone();
                        self.bin(BinOp::Add, old, rv, act)
                    }
                };
                self.set_slot(*s, new, act);
            }
            RLValue::Index { mem, indices } => {
                let subs = self.subscripts(indices, act);
                if !act.is_empty() {
                    self.store_index(*mem, op, &rv, &subs, pos, act);
                }
            }
        }
    }

    fn store_index(
        &mut self,
        mem: Mem,
        op: AssignOp,
        rv: &Reg,
        subs: &[Reg],
        pos: Pos,
        act: &mut Vec<u32>,
    ) {
        let uniform_error = match (op, mem) {
            // `+=` is admitted only on per-thread local arrays (the
            // register-pipeline update in the in-plane kernels): the
            // desugared read-modify-write needs no race bookkeeping
            // there. Shared and global memory stay outside the subset.
            (AssignOp::Add, Mem::Array { local: Some(_), .. }) => None,
            (AssignOp::Add, _) => Some("compound assignment to memory is outside the subset"),
            (_, Mem::GlobalIn) => Some("stores to `in` are outside the subset"),
            (_, Mem::Coeff) => Some("stores to the coefficient array are outside the subset"),
            (_, Mem::GlobalOut) if subs.len() != 1 => Some("`out` takes exactly one subscript"),
            _ => None,
        };
        if let Some(msg) = uniform_error {
            self.fail_all(act, ee(msg));
            return;
        }
        if let (Mem::Array { sym, local, .. }, Some(data)) = (mem, rv.datas()) {
            if let Some(cell) = self.uniform_cell(local, sym, subs, pos, act) {
                let stores = &mut self.stores;
                match op {
                    AssignOp::Set => each(act, self.n, |l| stores[l][cell] = data.at(l)),
                    AssignOp::Add => {
                        let code = op_code(BinOp::Add);
                        each(act, self.n, |l| {
                            let old = stores[l][cell];
                            stores[l][cell] = mix3(TAG_OP, mix(code, old), data.at(l));
                        })
                    }
                }
                return;
            }
        }
        let pv = match mem {
            Mem::Scoped(slot) => self.slots[slot as usize].clone(),
            _ => DEAD,
        };
        let mut idx = Vec::with_capacity(subs.len());
        let mut stopped = false;
        for &l in act.iter() {
            let l = l as usize;
            gather(subs, l, &mut idx);
            if let Err(e) = self.lane_store(l, mem, op, rv.at(l), pv.at(l), &idx, pos) {
                self.fail(l, &e);
                stopped = true;
            }
        }
        if stopped {
            self.prune(act);
        }
    }

    /// One lane's store of `v`; `p` is a `Scoped` target's pointer or
    /// view.
    #[allow(clippy::too_many_arguments)]
    fn lane_store(
        &mut self,
        l: usize,
        mem: Mem,
        op: AssignOp,
        v: Val,
        p: Val,
        idx: &[i64],
        pos: Pos,
    ) -> EResult<()> {
        match mem {
            Mem::Array { sym, local, .. } if op == AssignOp::Add => {
                let Some(a) = self.local(l, local) else {
                    return Err(ee("compound assignment to memory is outside the subset"));
                };
                let cell = self.local_cell(l, a, sym, idx, pos);
                let old = self.stores[l][cell];
                let add = to_data(v)?;
                self.stores[l][cell] = mix3(TAG_OP, mix(op_code(BinOp::Add), old), add);
                Ok(())
            }
            Mem::GlobalOut => {
                to_data(v)?;
                self.global_store(l, idx[0], pos);
                Ok(())
            }
            Mem::Scoped(slot) => {
                let prov = to_data(v)?;
                let addr = self.ptr_addr(l, slot, p, idx, pos)?;
                self.shared_write(l, addr, prov, pos);
                Ok(())
            }
            Mem::Array { sym, local, region } => {
                let prov = to_data(v)?;
                if let Some(a) = self.local(l, local) {
                    let cell = self.local_cell(l, a, sym, idx, pos);
                    self.stores[l][cell] = prov;
                } else if let Some(region) = region {
                    let addr = self.region_addr(l, region, sym, idx, pos);
                    self.shared_write(l, addr, prov, pos);
                } else {
                    return Err(ee(format!("unknown array `{}`", self.syms.name(sym))));
                }
                Ok(())
            }
            // Refused for every lane by `store_index`.
            Mem::GlobalIn | Mem::Coeff => Ok(()),
        }
    }
}

/// The subscripts `subs` of lane `l`.
fn gather(subs: &[Reg], l: usize, idx: &mut Vec<i64>) {
    idx.clear();
    idx.extend(subs.iter().map(|r| int(r.at(l))));
}

fn eval_bin(op: BinOp, a: Val, b: Val) -> EResult<Val> {
    if let (Val::Int(x), Val::Int(y)) = (a, b) {
        return match int_bin(op, x, y) {
            Some(r) => Ok(Val::Int(r)),
            None if op == BinOp::Div => Err(ee("integer division by zero")),
            None => Err(ee("integer remainder by zero")),
        };
    }
    // Data arithmetic folds provenance; comparisons and logic on data
    // values are outside the subset (they would make control flow
    // data-dependent).
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
            let x = to_data(a)?;
            let y = to_data(b)?;
            Ok(Val::Data(mix3(TAG_OP, mix(op_code(op), x), y)))
        }
        _ => Err(ee("comparison or logic on data values")),
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

/// Execute every thread of block `(bx, by)`, in lockstep, and collect
/// its events.
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
    // A block first runs without logging shared accesses: one whose
    // accesses could complete a race runs again, logged, so the replay
    // names each race as a thread-by-thread run would.
    let mut x = Exec::new(kernel, env, bx, by, regions, extent as usize, false);
    if !x.run() {
        x = Exec::new(kernel, env, bx, by, regions, extent as usize, true);
        x.run();
    }
    x.finish()
}

impl<'p> Exec<'p> {
    fn new(
        kernel: &'p Kernel,
        env: &LaunchEnv,
        bx: i64,
        by: i64,
        regions: &'p [Region],
        extent: usize,
        logged: bool,
    ) -> Self {
        let p = &kernel.program;
        let n = (env.block.0.saturating_mul(env.block.1)).max(0) as usize;
        let mut slots = vec![Reg::Uni(Val::Int(0)); p.slot_names.len()];
        let params = [env.nx, env.ny, env.nz, env.stride, env.pstride];
        for (slot, v) in p.params.iter().zip(params) {
            if let Some(slot) = slot {
                slots[*slot as usize] = Reg::Uni(Val::Int(v));
            }
        }
        Exec {
            p,
            syms: &kernel.syms,
            regions,
            env: *env,
            bx,
            by,
            buf_len: env.pstride.saturating_mul(env.nz),
            coeff_len: kernel.coeff_len.unwrap_or(env.coeff_len),
            extent,
            n,
            slots,
            locals: vec![None; n * p.locals],
            uni_locals: vec![None; p.locals],
            stores: vec![Vec::new(); n],
            phase: vec![0; n],
            trace: vec![Vec::new(); n],
            steps: 0,
            lag: vec![0; n],
            left: vec![0; n],
            cur_pos: vec![Pos { line: 1, col: 1 }; n],
            alive: vec![true; n],
            live: n,
            clock: 0,
            found: Vec::new(),
            best: HashMap::new(),
            logged,
            aborted: false,
            seen: Vec::new(),
            log: Vec::new(),
            own: HashMap::new(),
            made: HashSet::new(),
            race: RaceCells::default(),
            ev: BlockEvents::default(),
        }
    }

    /// Run every lane to its end; `false` if the run was abandoned.
    fn run(&mut self) -> bool {
        let mut act: Vec<u32> = (0..self.n as u32).collect();
        self.exec_block(&self.p.body, &mut act);
        self.flush(u64::MAX);
        !self.aborted
    }

    /// The block's events, with K003 checked and the findings ordered.
    fn finish(mut self) -> BlockEvents {
        let n = self.n;
        if n > 0 {
            // Thread 0's barrier sequence is the canonical one; the first
            // thread that departs from it is reported.
            let canon = std::mem::take(&mut self.trace[0]);
            if let Some(id) = (1..n).find(|&id| self.trace[id] != canon) {
                let trace = &self.trace[id];
                let pos = canon
                    .iter()
                    .zip(trace)
                    .find(|(a, b)| a != b)
                    .map(|(a, _)| *a)
                    .or_else(|| canon.get(trace.len()).copied())
                    .or_else(|| trace.get(canon.len()).copied())
                    .unwrap_or(Pos { line: 1, col: 1 });
                let (executed, canonical) = (trace.len(), canon.len());
                self.offer(id as u32, u64::MAX, ViolationKind::BarrierDivergence, pos, || {
                    format!(
                        "thread {id} executed {executed} barrier(s), thread 0 executed {canonical}; first differing site marked"
                    )
                });
            }
            self.ev.barrier_trace = canon;
        }
        let mut found = self.found;
        found.sort_unstable_by_key(|f| (f.thread, f.time));
        found.truncate(MAX_VIOLATIONS);
        self.ev.violations = found.into_iter().map(|f| f.v).collect();
        self.ev
    }
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

    // ---- the order of findings -----------------------------------------
    //
    // Findings come out in (thread id, program order), deduplicated by
    // (kind, site) and capped; the cases below pin that order where a
    // statement-at-a-time executor would see the events in another.

    /// A one-row block of `threads` threads over a `len`-element buffer.
    fn row_env(threads: i64, len: i64) -> LaunchEnv {
        LaunchEnv {
            block: (threads, 1),
            grid: (1, 1),
            nx: len,
            ny: 1,
            nz: 1,
            stride: len,
            pstride: len,
            coeff_len: 1,
            step_budget: 10_000,
        }
    }

    /// `(kind, line, detail)` of every violation, in order.
    fn findings(ev: &BlockEvents) -> Vec<(ViolationKind, u32, &str)> {
        ev.violations
            .iter()
            .map(|v| (v.kind, v.pos.line, v.detail.as_str()))
            .collect()
    }

    #[test]
    fn a_lower_threads_later_violation_comes_first() {
        // Thread 1 fails on line 3, thread 0 only on line 4.
        let ev = run(
            "void k(const float* in, float* out) {\n\
             const int tx = threadIdx.x;\n\
             out[tx * 100] = in[0];\n\
             out[(1 - tx) * 100] = in[0];\n\
             }",
            &row_env(2, 2),
        );
        let oob = "store at 100 outside buffer of 2 elements";
        assert_eq!(
            findings(&ev),
            [
                (ViolationKind::GlobalOob, 4, oob),
                (ViolationKind::GlobalOob, 3, oob)
            ]
        );
    }

    #[test]
    fn a_race_names_the_threads_in_thread_order() {
        // Threads 1 and 5 write s[0], thread 3 reads it; in thread
        // order thread 3 reads after thread 1's write and thread 5
        // writes after thread 3's read.
        let ev = run(
            "void k(const float* in, float* out) {\n\
             __shared__ float s[1];\n\
             const int tx = threadIdx.x;\n\
             if ((tx - 1) * (tx - 5) == 0) {\n\
             s[0] = in[tx];\n\
             }\n\
             if (tx == 3) {\n\
             out[0] = s[0];\n\
             }\n\
             }",
            &row_env(6, 6),
        );
        assert_eq!(
            findings(&ev),
            [
                (
                    ViolationKind::SharedRace,
                    8,
                    "thread 3 reads a cell thread 1 writes in the same barrier phase"
                ),
                (
                    ViolationKind::SharedRace,
                    5,
                    "thread 5 writes a cell thread 3 reads in the same barrier phase"
                ),
            ]
        );
    }

    #[test]
    fn a_read_before_the_conflicting_write_still_races_in_thread_order() {
        // Every thread reads its neighbour's cell before writing its
        // own: thread 1 reads what thread 0 wrote, and writes what
        // thread 0 read.
        let ev = run(
            "void k(const float* in, float* out) {\n\
             __shared__ float s[2];\n\
             const int tx = threadIdx.x;\n\
             out[tx] = s[1 - tx];\n\
             s[tx] = in[tx];\n\
             }",
            &env2(),
        );
        assert_eq!(
            findings(&ev),
            [
                (
                    ViolationKind::SharedRace,
                    4,
                    "thread 1 reads a cell thread 0 writes in the same barrier phase"
                ),
                (
                    ViolationKind::SharedRace,
                    5,
                    "thread 1 writes a cell thread 0 reads in the same barrier phase"
                ),
            ]
        );
    }

    #[test]
    fn a_thread_that_fails_mid_statement_stops_there_alone() {
        // Thread 1 loads in[1], then divides by zero inside the same
        // statement; threads 0 and 2 run on to line 4.
        let src = "void k(const float* in, float* out) {\n\
                   const int tx = threadIdx.x;\n\
                   out[tx] = in[tx] + in[4 / (tx - 1) + 4];\n\
                   out[tx + 100] = in[0];\n\
                   }";
        let ev = run(src, &row_env(3, 16));
        assert_eq!(
            findings(&ev),
            [
                (
                    ViolationKind::GlobalOob,
                    4,
                    "store at 100 outside buffer of 16 elements"
                ),
                (ViolationKind::Eval, 3, "thread 1: integer division by zero"),
            ]
        );
        // The failing subscript belongs to the second `in` of line 3.
        let line3 = src.lines().nth(2).unwrap();
        let col = line3.rfind("in[").unwrap() + 1;
        assert_eq!(ev.violations[1].pos.col as usize, col);
        let mut loads: Vec<i64> = ev.loads.iter().map(|a| a.addr).collect();
        loads.sort_unstable();
        assert_eq!(loads, [0, 0, 0, 0, 1, 2, 8]);
        let mut stores: Vec<i64> = ev.stores.iter().map(|a| a.addr).collect();
        stores.sort_unstable();
        assert_eq!(stores, [0, 2]);
    }

    #[test]
    fn a_barrier_under_a_thread_dependent_loop_bound_diverges() {
        // Threads 0 and 1 pass one barrier, threads 2 and 3 none: the
        // pairs race on s[0] in different phases, and thread 2 is the
        // first to leave thread 0's barrier sequence.
        let ev = run(
            "void k(const float* in, float* out) {\n\
             __shared__ float s[1];\n\
             const int tx = threadIdx.x;\n\
             for (int i = tx / 2; i < 1; ++i) {\n\
             __syncthreads();\n\
             }\n\
             s[0] = in[tx];\n\
             }",
            &row_env(4, 4),
        );
        assert_eq!(
            findings(&ev),
            [
                (
                    ViolationKind::SharedRace,
                    7,
                    "threads 0 and 1 write different values to one cell in one barrier phase"
                ),
                (
                    ViolationKind::BarrierDivergence,
                    5,
                    "thread 2 executed 0 barrier(s), thread 0 executed 1; first differing site marked"
                ),
            ]
        );
        assert_eq!(ev.barrier_trace.len(), 1);
    }

    #[test]
    fn one_thread_exhausts_its_budget_while_the_others_finish() {
        // Thread 1's step is 0: it loops until its budget runs out.
        let mut env = row_env(3, 4);
        env.step_budget = 200;
        let ev = run(
            "void k(const float* in, float* out) {\n\
             const int tx = threadIdx.x;\n\
             for (int i = 0; i < 5; i += (tx != 1)) {\n\
             out[0] = in[tx];\n\
             }\n\
             out[tx + 100] = in[0];\n\
             }",
            &env,
        );
        assert_eq!(
            findings(&ev),
            [
                (
                    ViolationKind::GlobalOob,
                    6,
                    "store at 100 outside buffer of 4 elements"
                ),
                (
                    ViolationKind::Budget,
                    4,
                    "thread 1: per-thread statement budget exhausted in a loop"
                ),
            ]
        );
        // Thread 1 ran 99 whole iterations before the budget stopped it.
        assert_eq!(ev.loads.iter().filter(|a| a.addr == 1).count(), 99);
        assert_eq!(ev.loads.len(), 6 + 99 + 6);
    }

    #[test]
    fn threads_taking_turns_on_one_cell_keep_the_race_log_bounded() {
        // Both threads write their own value to s[0] and read it back
        // until the budget stops them. From its third iteration on, a
        // thread's accesses repeat ones it made after it had both written
        // and read the cell, and are dropped: the log holds two writes
        // and two reads per thread however long the loop runs.
        let src = "void k(const float* in, float* out) {\n\
                   __shared__ float s[1];\n\
                   const int tx = threadIdx.x;\n\
                   for (int i = 0; i < 5; i += 0) {\n\
                   s[0] = tx;\n\
                   const float v = s[0];\n\
                   }\n\
                   }";
        let mut env = env2();
        env.step_budget = 400;
        let ev = run(src, &env);
        assert_eq!(
            findings(&ev),
            [
                (
                    ViolationKind::Budget,
                    5,
                    "thread 0: per-thread statement budget exhausted"
                ),
                (
                    ViolationKind::SharedRace,
                    5,
                    "thread 1 writes a cell thread 0 reads in the same barrier phase"
                ),
            ]
        );
        let k = parse_kernel(src).expect("parse");
        let Ok((regions, extent)) = &k.program.shared else {
            panic!("shared layout");
        };
        let mut x = Exec::new(&k, &env, 0, 0, regions, *extent as usize, true);
        let mut act = vec![0, 1];
        x.exec_block(&k.program.body, &mut act);
        assert_eq!(x.log.len(), 8);
    }

    #[test]
    fn the_violation_cap_keeps_the_first_in_thread_order() {
        // 300 store sites: thread 0 fails the odd ones, thread 1 the
        // even ones. Thread 0's 150 come first, then thread 1's first
        // 106 until the cap.
        let mut src =
            String::from("void k(const float* in, float* out) {\nconst int tx = threadIdx.x;\n");
        for i in 0..300 {
            src.push_str(if i % 2 == 0 {
                "out[tx * 100] = in[0];\n"
            } else {
                "out[(1 - tx) * 100] = in[0];\n"
            });
        }
        src.push('}');
        let ev = run(&src, &row_env(2, 2));
        assert_eq!(ev.violations.len(), MAX_VIOLATIONS);
        let lines: Vec<u32> = ev.violations.iter().map(|v| v.pos.line).collect();
        let odd = (0..300u32).filter(|i| i % 2 == 1).map(|i| i + 3);
        let even = (0..300u32).filter(|i| i % 2 == 0).map(|i| i + 3);
        let expected: Vec<u32> = odd.chain(even).take(MAX_VIOLATIONS).collect();
        assert_eq!(lines, expected);
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

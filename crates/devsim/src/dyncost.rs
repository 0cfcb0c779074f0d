//! Dynamic cost estimation: evaluating a compiled kernel's
//! [`CostTree`] against concrete loop bounds.
//!
//! The tree was built by the same emission pass that produced the
//! static PTX, so "dynamic instructions per parallel iteration" is the
//! static per-category mix weighted by trip counts — the quantity the
//! paper's static analysis cannot measure ("the analysis only
//! considers a static count … and cannot actually count the number of
//! actually executed instructions") but that the timing model needs.
//!
//! Loop bounds may reference program parameters, host loop variables
//! and outer *parallel* variables (triangular nests); parallel
//! variables are sampled at `{lo, mid, hi-1}` and averaged. Bounds
//! that cannot be evaluated at all (BFS's data-dependent edge ranges)
//! fall back to a per-kernel trip hint.

use paccport_compilers::{CostNode, CostTree, KernelPlan};
use paccport_ir::expr::{BinOp, CmpOp, Expr, UnOp};
use paccport_ir::{Kernel, ParallelLoop, VarId};
use paccport_ptx::{Category, CATEGORIES};
use std::collections::BTreeMap;

use crate::interp::V;

/// Averaged dynamic instruction mix (per parallel iteration).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DynCost {
    pub cats: [f64; CATEGORIES.len()],
    /// Global-memory transactions (4 bytes each).
    pub ldst: f64,
}

impl DynCost {
    pub fn from_counts(c: &paccport_ptx::CategoryCounts, ldst: u64) -> Self {
        DynCost {
            cats: c.as_f64(),
            ldst: ldst as f64,
        }
    }

    pub fn add_scaled(&mut self, other: &DynCost, w: f64) {
        for (a, b) in self.cats.iter_mut().zip(other.cats.iter()) {
            *a += b * w;
        }
        self.ldst += other.ldst * w;
    }

    /// Total issue slots (all categories; sync barely matters).
    pub fn issue_slots(&self) -> f64 {
        self.cats.iter().sum()
    }

    /// Bytes of global-memory traffic (4-byte transactions).
    pub fn mem_bytes(&self) -> f64 {
        self.ldst * 4.0
    }

    pub fn get(&self, c: Category) -> f64 {
        self.cats[c.index()]
    }
}

/// Workload-supplied estimation hints.
#[derive(Debug, Clone, Default)]
pub struct CostHints {
    /// Probability of taking the `then` arm, per `(kernel, branch
    /// DFS index)`. Default 0.5.
    pub branch_weights: BTreeMap<(String, usize), f64>,
    /// Fallback trip count for loops whose bounds are data-dependent,
    /// per kernel (BFS's average out-degree). Default 8.
    pub trip_fallbacks: BTreeMap<String, f64>,
}

impl CostHints {
    pub fn branch_weight(&self, kernel: &str, idx: usize) -> f64 {
        if self.branch_weights.is_empty() {
            return 0.5;
        }
        self.branch_weights
            .get(&(kernel.to_string(), idx))
            .copied()
            .unwrap_or(0.5)
    }

    pub fn trip_fallback(&self, kernel: &str) -> f64 {
        self.trip_fallbacks.get(kernel).copied().unwrap_or(8.0)
    }

    pub fn with_branch(mut self, kernel: &str, idx: usize, w: f64) -> Self {
        self.branch_weights.insert((kernel.into(), idx), w);
        self
    }

    pub fn with_trips(mut self, kernel: &str, t: f64) -> Self {
        self.trip_fallbacks.insert(kernel.into(), t);
        self
    }
}

/// Variable bindings for bound evaluation, one slot per [`VarId`].
///
/// Reads of a variable past the end are unbound; binding one grows the
/// table, so a cost tree may bind variables numbered after those the
/// table was sized for (transforms allocate fresh unroll and tile
/// counters after the program's own).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VarSlots(Vec<Option<f64>>);

impl VarSlots {
    /// An all-unbound table sized for `n` variables.
    pub fn new(n: usize) -> Self {
        VarSlots(vec![None; n])
    }

    pub fn get(&self, v: VarId) -> Option<f64> {
        self.0.get(v.0 as usize).copied().flatten()
    }

    /// Bind (or, with `None`, unbind) `v`, returning its previous
    /// binding so the caller can restore it.
    pub fn set(&mut self, v: VarId, x: Option<f64>) -> Option<f64> {
        let i = v.0 as usize;
        if i >= self.0.len() && x.is_some() {
            self.0.resize(i + 1, None);
        }
        self.0
            .get_mut(i)
            .and_then(|slot| std::mem::replace(slot, x))
    }
}

/// Best-effort scalar evaluation of a bound expression: `None` when it
/// touches memory or an unbound variable.
pub fn try_eval(e: &Expr, params: &[V], vars: &VarSlots) -> Option<f64> {
    try_eval_mode(e, params, vars, false)
}

/// Lenient evaluation: unbound variables and work-group builtins read
/// as 0 (a lower-corner estimate — correct for strided reduction
/// loops whose start is `lo + tid`), but memory loads still fail.
fn try_eval_lenient(e: &Expr, params: &[V], vars: &VarSlots) -> Option<f64> {
    try_eval_mode(e, params, vars, true)
}

fn try_eval_mode(e: &Expr, params: &[V], vars: &VarSlots, lenient: bool) -> Option<f64> {
    match e {
        Expr::FConst(v) => Some(*v),
        Expr::IConst(v) => Some(*v as f64),
        Expr::BConst(v) => Some(*v as i64 as f64),
        Expr::Param(id) => Some(params[id.0 as usize].as_f()),
        Expr::Var(id) => vars.get(*id).or(if lenient { Some(0.0) } else { None }),
        Expr::Special(_) => {
            if lenient {
                Some(0.0)
            } else {
                None
            }
        }
        Expr::Load { .. } => None,
        Expr::Un(op, a) => {
            let a = try_eval_mode(a, params, vars, lenient)?;
            Some(match op {
                UnOp::Neg => -a,
                UnOp::Abs => a.abs(),
                UnOp::Rcp => 1.0 / a,
                UnOp::Sqrt => a.sqrt(),
                UnOp::Not => (a == 0.0) as i64 as f64,
                UnOp::Exp => a.exp(),
            })
        }
        Expr::Bin(op, a, b) => {
            let a = try_eval_mode(a, params, vars, lenient)?;
            let b = try_eval_mode(b, params, vars, lenient)?;
            Some(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => {
                    if (a.fract() == 0.0) && (b.fract() == 0.0) && b != 0.0 {
                        ((a as i64) / (b as i64)) as f64
                    } else {
                        a / b
                    }
                }
                BinOp::Rem => {
                    if b == 0.0 {
                        return None;
                    }
                    ((a as i64) % (b as i64)) as f64
                }
                BinOp::Min => a.min(b),
                BinOp::Max => a.max(b),
                BinOp::And => ((a != 0.0) && (b != 0.0)) as i64 as f64,
                BinOp::Or => ((a != 0.0) || (b != 0.0)) as i64 as f64,
                BinOp::Shl => ((a as i64) << (b as i64)) as f64,
                BinOp::Shr => ((a as i64) >> (b as i64)) as f64,
            })
        }
        Expr::Cmp(op, a, b) => {
            let a = try_eval_mode(a, params, vars, lenient)?;
            let b = try_eval_mode(b, params, vars, lenient)?;
            let r = match op {
                CmpOp::Eq => a == b,
                CmpOp::Ne => a != b,
                CmpOp::Lt => a < b,
                CmpOp::Le => a <= b,
                CmpOp::Gt => a > b,
                CmpOp::Ge => a >= b,
            };
            Some(r as i64 as f64)
        }
        Expr::Fma(a, b, c) => Some(
            try_eval_mode(a, params, vars, lenient)? * try_eval_mode(b, params, vars, lenient)?
                + try_eval_mode(c, params, vars, lenient)?,
        ),
        Expr::Select(c, a, b) => {
            if try_eval_mode(c, params, vars, lenient)? != 0.0 {
                try_eval_mode(a, params, vars, lenient)
            } else {
                try_eval_mode(b, params, vars, lenient)
            }
        }
        Expr::Cast(_, a) => try_eval_mode(a, params, vars, lenient),
    }
}

struct TreeEval<'a> {
    kernel: &'a str,
    params: &'a [V],
    hints: &'a CostHints,
    branch_idx: usize,
}

impl TreeEval<'_> {
    fn eval(&mut self, t: &CostTree, vars: &mut VarSlots) -> DynCost {
        let mut out = DynCost::from_counts(&t.flat, t.flat_ldst);
        for kid in &t.kids {
            match kid {
                CostNode::Loop {
                    var,
                    lo,
                    hi,
                    step,
                    overhead,
                    body,
                } => {
                    let lo_v = try_eval(lo, self.params, vars)
                        .or_else(|| try_eval_lenient(lo, self.params, vars));
                    let hi_v = try_eval(hi, self.params, vars)
                        .or_else(|| try_eval_lenient(hi, self.params, vars));
                    let trips = match (lo_v, hi_v) {
                        (Some(l), Some(h)) => ((h - l) / *step as f64).ceil().max(0.0),
                        _ => self.hints.trip_fallback(self.kernel),
                    };
                    // Bind the loop var to its midpoint for the body.
                    let mid = match (lo_v, hi_v) {
                        (Some(l), Some(h)) => (l + h) / 2.0,
                        _ => self.hints.trip_fallback(self.kernel) / 2.0,
                    };
                    let saved = vars.set(*var, Some(mid));
                    let body_cost = self.eval(body, vars);
                    vars.set(*var, saved);
                    let mut per_iter = body_cost;
                    per_iter.add_scaled(&DynCost::from_counts(overhead, 0), 1.0);
                    out.add_scaled(&per_iter, trips);
                }
                CostNode::Branch { then, els } => {
                    let w = self.hints.branch_weight(self.kernel, self.branch_idx);
                    self.branch_idx += 1;
                    let t_cost = self.eval(then, vars);
                    let e_cost = self.eval(els, vars);
                    out.add_scaled(&t_cost, w);
                    out.add_scaled(&e_cost, 1.0 - w);
                }
            }
        }
        out
    }
}

/// The variables a cost tree's loop bounds read, sorted and without
/// repeats. Loop variables the tree binds itself are included: a bound
/// evaluated before its binder runs (or after it restores) reads the
/// caller's value. The tree's cost is a pure function of the values of
/// these variables (given parameters and hints).
pub fn tree_free_vars(t: &CostTree) -> Vec<VarId> {
    fn walk(t: &CostTree, out: &mut Vec<VarId>) {
        for kid in &t.kids {
            match kid {
                CostNode::Loop { lo, hi, body, .. } => {
                    for e in [lo, hi] {
                        e.walk(&mut |e| {
                            if let Expr::Var(v) = e {
                                out.push(*v);
                            }
                        });
                    }
                    walk(body, out);
                }
                CostNode::Branch { then, els } => {
                    walk(then, out);
                    walk(els, out);
                }
            }
        }
    }
    let mut out = Vec::new();
    walk(t, &mut out);
    out.sort_unstable();
    out.dedup();
    out
}

/// Sample points kept per launch: the cap on the combinatorial growth
/// of `{lo, mid, hi-1}` per distributed loop.
const MAX_SAMPLES: usize = 9;

/// `{lo, mid, hi-1}` with consecutive repeats dropped.
fn sample_points(lo: f64, hi: f64) -> ([f64; 3], usize) {
    let mut pts = [lo, 0.0, 0.0];
    let mut n = 1;
    for p in [(lo + hi) / 2.0, (hi - 1.0).max(lo)] {
        if p != pts[n - 1] {
            pts[n] = p;
            n += 1;
        }
    }
    (pts, n)
}

/// Bind `loops[i].var` to `row[i]` in order, so a later loop over the
/// same variable wins.
fn bind_row(vars: &mut VarSlots, loops: &[ParallelLoop], row: &[f64]) {
    for (lp, x) in loops.iter().zip(row) {
        vars.set(lp.var, Some(*x));
    }
}

/// Average per-parallel-iteration dynamic cost of a kernel launch, and
/// the number of cost-tree evaluations it took.
///
/// `vars` binds the host variables currently in scope and is left as
/// it was found; `free` is [`tree_free_vars`] of `plan.cost`;
/// `dist_rank` says how many parallel loops are distributed (their
/// variables are sampled when the cost depends on them). Samples that
/// agree on every free variable share one tree evaluation.
pub fn kernel_dyn_cost(
    kernel: &Kernel,
    plan: &KernelPlan,
    free: &[VarId],
    dist_rank: usize,
    params: &[V],
    vars: &mut VarSlots,
    hints: &CostHints,
) -> (DynCost, usize) {
    // Sample points for distributed parallel variables whose value the
    // cost may depend on (triangular serialized loops): `rows` holds
    // one row of `d` values per point, built one loop at a time.
    let loops = &kernel.loops[..dist_rank.min(kernel.loops.len())];
    let d = loops.len();
    let saved: Vec<Option<f64>> = loops.iter().map(|lp| vars.get(lp.var)).collect();
    let mut rows: Vec<f64> = Vec::with_capacity(3 * MAX_SAMPLES * d);
    let mut next: Vec<f64> = Vec::with_capacity(3 * MAX_SAMPLES * d);
    let mut n_rows = 1;
    for (l, lp) in loops.iter().enumerate() {
        next.clear();
        for r in 0..n_rows {
            let prefix = &rows[r * d..r * d + l];
            bind_row(vars, loops, prefix);
            let lo = try_eval(&lp.lo, params, vars).unwrap_or(0.0);
            let hi = try_eval(&lp.hi, params, vars).unwrap_or(lo + 1.0);
            let (pts, n) = sample_points(lo, hi);
            for pt in &pts[..n] {
                next.extend_from_slice(prefix);
                next.push(*pt);
                next.resize(next.len() + d - l - 1, 0.0);
            }
        }
        // Cap combinatorial growth.
        n_rows = (next.len() / d).min(MAX_SAMPLES);
        next.truncate(n_rows * d);
        std::mem::swap(&mut rows, &mut next);
    }
    // The bits of free variable `v` under row `r`.
    let value = |r: usize, v: VarId, vars: &VarSlots| match loops.iter().rposition(|lp| lp.var == v)
    {
        Some(m) => Some(rows[r * d + m].to_bits()),
        None => vars.get(v).map(f64::to_bits),
    };
    let mut acc = DynCost::default();
    let n = n_rows as f64;
    // Tree evaluation is pure, so replaying an earlier row's cost adds
    // exactly the bits a fresh evaluation would.
    let mut evaluated = [(0usize, DynCost::default()); MAX_SAMPLES];
    let mut evals = 0;
    for r in 0..n_rows {
        let prior = evaluated[..evals].iter().find(|(q, _)| {
            free.iter()
                .all(|v| value(*q, *v, vars) == value(r, *v, vars))
        });
        let c = match prior {
            Some((_, c)) => *c,
            None => {
                bind_row(vars, loops, &rows[r * d..(r + 1) * d]);
                let mut ev = TreeEval {
                    kernel: &plan.kernel,
                    params,
                    hints,
                    branch_idx: 0,
                };
                let c = ev.eval(&plan.cost, vars);
                evaluated[evals] = (r, c);
                evals += 1;
                c
            }
        };
        acc.add_scaled(&c, 1.0 / n);
    }
    for (lp, old) in loops.iter().zip(saved).rev() {
        vars.set(lp.var, old);
    }
    (acc, evals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paccport_compilers::{compile, CompileOptions, CompilerId};
    use paccport_ir::{
        assign, for_, ld, let_, st, HostStmt, Intent, Kernel, ParallelLoop, Program,
        ProgramBuilder, Scalar, E,
    };

    /// Compile `k` (launched inside a host loop over `t`) with CAPS for
    /// the GPU; returns the compiled program.
    fn compiled(
        b: ProgramBuilder,
        n: paccport_ir::ParamId,
        t: VarId,
        k: Kernel,
    ) -> paccport_compilers::CompiledProgram {
        let p: Program = b.finish(vec![HostStmt::HostLoop {
            var: t,
            lo: Expr::iconst(0),
            hi: Expr::param(n),
            body: vec![HostStmt::Launch(k)],
        }]);
        compile(CompilerId::Caps, &p, &CompileOptions::gpu()).unwrap()
    }

    /// Cost and evaluation count of kernel `name` with host var `t`
    /// bound, sampling `dist_rank` parallel loops and treating `free`
    /// as the tree's free variables.
    fn cost_and_evals(
        c: &paccport_compilers::CompiledProgram,
        name: &str,
        free: &[VarId],
        t: VarId,
        dist_rank: usize,
    ) -> (DynCost, usize) {
        let mut vars = VarSlots::new(c.program.var_names.len());
        vars.set(t, Some(37.0));
        let out = kernel_dyn_cost(
            c.program.kernel(name).unwrap(),
            c.plan(name).unwrap(),
            free,
            dist_rank,
            &[V::I(256)],
            &mut vars,
            &CostHints::default(),
        );
        assert_eq!(vars.get(t), Some(37.0), "host binding restored");
        out
    }

    fn bits(c: &DynCost) -> Vec<u64> {
        c.cats
            .iter()
            .chain([&c.ldst])
            .map(|x| x.to_bits())
            .collect()
    }

    /// LUD's `lud_row`: `j in i..n`, inner `k in 0..i` — the tree reads
    /// only the host variable, so its three samples share one
    /// evaluation, bit-identical to evaluating each.
    #[test]
    fn lud_shaped_tree_reads_host_var_and_evaluates_once() {
        let mut b = ProgramBuilder::new("lud");
        let n = b.iparam("n");
        let a = b.array("a", Scalar::F32, E::from(n) * n, Intent::InOut);
        let i = b.var("i");
        let j = b.var("j");
        let kv = b.var("k");
        let sum = b.var("sum");
        let mut lp = ParallelLoop::new(j, Expr::var(i), Expr::param(n));
        lp.clauses.gang = Some(256);
        lp.clauses.worker = Some(16);
        let k = Kernel::simple(
            "lud_row",
            vec![lp],
            paccport_ir::Block::new(vec![
                let_(sum, Scalar::F32, ld(a, E::from(i) * n + j)),
                for_(
                    kv,
                    0i64,
                    E::from(i),
                    vec![assign(
                        sum,
                        E::from(sum) - ld(a, E::from(i) * n + kv) * ld(a, E::from(kv) * n + j),
                    )],
                ),
                st(a, E::from(i) * n + j, E::from(sum)),
            ]),
        );
        let c = compiled(b, n, i, k);
        let free = tree_free_vars(&c.plan("lud_row").unwrap().cost);
        assert_eq!(free, vec![i]);
        let (deduped, evals) = cost_and_evals(&c, "lud_row", &free, i, 1);
        assert_eq!(evals, 1);
        // Declaring `j` free defeats the dedup: three evaluations, and
        // the very same bits.
        let (each, evals) = cost_and_evals(&c, "lud_row", &[i, j], i, 1);
        assert_eq!(evals, 3);
        assert_eq!(bits(&deduped), bits(&each));
    }

    /// GE's `fan2a`: a rank-2 nest whose body has no loop, so the tree
    /// reads nothing and nine samples take one evaluation.
    #[test]
    fn ge_fan_shaped_tree_reads_nothing() {
        let mut b = ProgramBuilder::new("ge");
        let n = b.iparam("n");
        let a = b.array("a", Scalar::F32, E::from(n) * n, Intent::InOut);
        let m = b.array("m", Scalar::F32, E::from(n) * n, Intent::InOut);
        let t = b.var("t");
        let i2 = b.var("i2");
        let j = b.var("j");
        let mut outer = ParallelLoop::new(i2, (E::from(t) + 1i64).expr(), Expr::param(n));
        outer.clauses.independent = true;
        let mut inner = ParallelLoop::new(j, Expr::var(t), Expr::param(n));
        inner.clauses.independent = true;
        let k = Kernel::simple(
            "fan2a",
            vec![outer, inner],
            paccport_ir::Block::new(vec![st(
                a,
                E::from(i2) * n + j,
                ld(a, E::from(i2) * n + j) - ld(m, E::from(i2) * n + t) * ld(a, E::from(t) * n + j),
            )]),
        );
        let c = compiled(b, n, t, k);
        let free = tree_free_vars(&c.plan("fan2a").unwrap().cost);
        assert_eq!(free, Vec::<VarId>::new());
        let (deduped, evals) = cost_and_evals(&c, "fan2a", &free, t, 2);
        assert_eq!(evals, 1);
        let (each, evals) = cost_and_evals(&c, "fan2a", &[i2, j], t, 2);
        assert_eq!(evals, 9);
        assert_eq!(bits(&deduped), bits(&each));
    }

    /// `for k in 0..n { for m in k..n }`: the inner bound reads `k`,
    /// which the tree binds itself; it still counts as free. A
    /// parallel-variable bound (`for q in j..n`) keeps every sample.
    #[test]
    fn loop_vars_bound_inside_the_tree_are_free() {
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let x = b.array("x", Scalar::F32, n, Intent::InOut);
        let t = b.var("t");
        let j = b.var("j");
        let kv = b.var("k");
        let mv = b.var("m");
        let qv = b.var("q");
        let s = b.var("s");
        let mut lp = ParallelLoop::new(j, Expr::iconst(0), Expr::param(n));
        lp.clauses.independent = true;
        let k = Kernel::simple(
            "tri",
            vec![lp],
            paccport_ir::Block::new(vec![
                let_(s, Scalar::F32, 0.0),
                for_(
                    kv,
                    0i64,
                    E::from(n),
                    vec![for_(
                        mv,
                        kv,
                        E::from(n),
                        vec![assign(s, E::from(s) + ld(x, mv))],
                    )],
                ),
                for_(qv, j, E::from(n), vec![assign(s, E::from(s) + ld(x, qv))]),
                st(x, j, E::from(s)),
            ]),
        );
        let c = compiled(b, n, t, k);
        let free = tree_free_vars(&c.plan("tri").unwrap().cost);
        assert_eq!(free, vec![j, kv]);
        let (_, evals) = cost_and_evals(&c, "tri", &free, t, 1);
        assert_eq!(evals, 3, "samples differ in `j`, so none may merge");
    }

    #[test]
    fn var_slots_grow_on_bind_past_the_end() {
        let mut v = VarSlots::new(2);
        assert_eq!(v.get(VarId(9)), None);
        assert_eq!(v.set(VarId(9), None), None);
        assert_eq!(v, VarSlots::new(2), "unbinding past the end does not grow");
        assert_eq!(v.set(VarId(9), Some(4.0)), None);
        assert_eq!(v.get(VarId(9)), Some(4.0));
        assert_eq!(v.set(VarId(9), Some(5.0)), Some(4.0));
        assert_eq!(v.set(VarId(9), None), Some(5.0));
        assert_eq!(v.get(VarId(9)), None);
    }

    /// A tree loop variable numbered past the program's table (as
    /// unroll and tile counters are) must still bind for the loops
    /// nested in it: renumbering `k` leaves the cost unchanged.
    #[test]
    fn fresh_tree_vars_past_the_table_bind() {
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let x = b.array("x", Scalar::F32, n, Intent::InOut);
        let t = b.var("t");
        let j = b.var("j");
        let kv = b.var("k");
        let mv = b.var("m");
        let s = b.var("s");
        let mut lp = ParallelLoop::new(j, Expr::iconst(0), Expr::param(n));
        lp.clauses.independent = true;
        let k = Kernel::simple(
            "nest",
            vec![lp],
            paccport_ir::Block::new(vec![
                let_(s, Scalar::F32, 0.0),
                for_(
                    kv,
                    0i64,
                    E::from(n),
                    vec![for_(mv, 0i64, kv, vec![assign(s, E::from(s) + ld(x, mv))])],
                ),
                st(x, j, E::from(s)),
            ]),
        );
        let mut c = compiled(b, n, t, k);
        let (before, _) = cost_and_evals(&c, "nest", &[], t, 1);
        let fresh = VarId(c.program.var_names.len() as u32 + 40);
        fn renumber(tree: &mut CostTree, from: VarId, to: VarId) {
            for kid in &mut tree.kids {
                match kid {
                    CostNode::Loop {
                        var, lo, hi, body, ..
                    } => {
                        if *var == from {
                            *var = to;
                        }
                        *lo = lo.subst_var(from, &Expr::var(to));
                        *hi = hi.subst_var(from, &Expr::var(to));
                        renumber(body, from, to);
                    }
                    CostNode::Branch { then, els } => {
                        renumber(then, from, to);
                        renumber(els, from, to);
                    }
                }
            }
        }
        let plan = c.plans.iter_mut().find(|p| p.kernel == "nest").unwrap();
        renumber(&mut plan.cost, kv, fresh);
        assert_eq!(tree_free_vars(&plan.cost), vec![fresh]);
        let (after, _) = cost_and_evals(&c, "nest", &[], t, 1);
        assert_eq!(bits(&before), bits(&after));
    }

    /// Build `out[i] = sum_{k<n} x[k]` and check the dynamic cost
    /// scales linearly with n.
    #[test]
    fn dynamic_cost_scales_with_trip_count() {
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let x = b.array("x", Scalar::F32, n, Intent::In);
        let out = b.array("out", Scalar::F32, n, Intent::Out);
        let i = b.var("i");
        let kv = b.var("k");
        let s = b.var("s");
        let mut lp = ParallelLoop::new(i, Expr::iconst(0), Expr::param(n));
        lp.clauses.independent = true;
        let k = Kernel::simple(
            "sum",
            vec![lp],
            paccport_ir::Block::new(vec![
                let_(s, Scalar::F32, 0.0),
                for_(
                    kv,
                    0i64,
                    E::from(n),
                    vec![assign(s, E::from(s) + ld(x, kv))],
                ),
                st(out, i, E::from(s)),
            ]),
        );
        let p = b.finish(vec![HostStmt::Launch(k)]);
        let c = compile(CompilerId::Caps, &p, &CompileOptions::gpu()).unwrap();
        let plan = c.plan("sum").unwrap();
        let kernel = c.program.kernel("sum").unwrap();

        let cost_at = |nv: i64| {
            kernel_dyn_cost(
                kernel,
                plan,
                &tree_free_vars(&plan.cost),
                1,
                &[V::I(nv)],
                &mut VarSlots::default(),
                &CostHints::default(),
            )
            .0
        };
        let c64 = cost_at(64);
        let c128 = cost_at(128);
        let ratio = c128.issue_slots() / c64.issue_slots();
        assert!(
            (ratio - 2.0).abs() < 0.2,
            "expected ~2x scaling, got {ratio}"
        );
        // One global load per inner iteration + one store.
        assert!((c64.ldst - 65.0).abs() < 2.0, "ldst {}", c64.ldst);
    }

    #[test]
    fn branch_weight_hint_changes_cost() {
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let x = b.array("x", Scalar::F32, n, Intent::InOut);
        let i = b.var("i");
        let mut lp = ParallelLoop::new(i, Expr::iconst(0), Expr::param(n));
        lp.clauses.independent = true;
        let k = Kernel::simple(
            "guarded",
            vec![lp],
            paccport_ir::Block::new(vec![paccport_ir::if_(
                ld(x, i).gt(0.0),
                vec![st(x, i, ld(x, i) * 2.0), st(x, i, ld(x, i) * 3.0)],
            )]),
        );
        let p = b.finish(vec![HostStmt::Launch(k)]);
        let c = compile(CompilerId::Caps, &p, &CompileOptions::gpu()).unwrap();
        let plan = c.plan("guarded").unwrap();
        let kernel = c.program.kernel("guarded").unwrap();
        let cost_with = |h: CostHints| {
            kernel_dyn_cost(
                kernel,
                plan,
                &tree_free_vars(&plan.cost),
                1,
                &[V::I(64)],
                &mut VarSlots::default(),
                &h,
            )
            .0
        };
        let dflt = cost_with(CostHints::default());
        let rare = cost_with(CostHints::default().with_branch("guarded", 0, 0.01));
        assert!(dflt.issue_slots() > rare.issue_slots());
    }

    #[test]
    fn data_dependent_bounds_use_trip_fallback() {
        // for e in nodes[i]..nodes[i]+deg — unanalyzable bounds.
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let nodes = b.array("nodes", Scalar::I32, n, Intent::In);
        let out = b.array("out", Scalar::F32, n, Intent::Out);
        let i = b.var("i");
        let e = b.var("e");
        let mut lp = ParallelLoop::new(i, Expr::iconst(0), Expr::param(n));
        lp.clauses.independent = true;
        let k = Kernel::simple(
            "edges",
            vec![lp],
            paccport_ir::Block::new(vec![for_(
                e,
                ld(nodes, i),
                ld(nodes, i) + 4i64,
                vec![st(out, i, 1.0)],
            )]),
        );
        let p = b.finish(vec![HostStmt::Launch(k)]);
        let c = compile(CompilerId::Caps, &p, &CompileOptions::gpu()).unwrap();
        let plan = c.plan("edges").unwrap();
        let kernel = c.program.kernel("edges").unwrap();
        let cost_with = |t: f64| {
            kernel_dyn_cost(
                kernel,
                plan,
                &tree_free_vars(&plan.cost),
                1,
                &[V::I(64)],
                &mut VarSlots::default(),
                &CostHints::default().with_trips("edges", t),
            )
            .0
            .issue_slots()
        };
        assert!(cost_with(100.0) > cost_with(2.0) * 3.0);
    }
}

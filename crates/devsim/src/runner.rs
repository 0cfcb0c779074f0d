//! End-to-end execution of a compiled program on a simulated device:
//! host control flow, transfer accounting (the evidence behind
//! Table VII), modeled kernel times, and — in functional mode — real
//! execution of every kernel so results can be validated.

use crate::device::{host_cpu, spec_for, DeviceSpec};
use crate::dyncost::{kernel_dyn_cost, tree_free_vars, try_eval, CostHints, VarSlots};
use crate::interp::{exec_kernel_traced, fresh_vars, KernelFidelity, V};
use crate::memory::{Buffer, TransferLedger};
use crate::race::{Race, RaceTracker};
use crate::tier::ExecTier;
use crate::timing::{kernel_launch_time, transfer_time};
use paccport_compilers::common::dist_rank_of;
use paccport_compilers::lower::used_arrays;
use paccport_compilers::{
    CompiledProgram, Correctness, DistSpec, ExecStrategy, KernelPlan, TransferPolicy,
};
use paccport_ir::stmt::Stmt;
use paccport_ir::types::MemSpace;
use paccport_ir::{ArrayId, Dir, HostStmt, Intent, Kernel, KernelBody, Scalar, VarId};
use std::collections::BTreeSet;
use std::rc::Rc;

/// How faithfully to run the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Allocate buffers, execute every kernel, produce checkable
    /// results. Use for validation-scale inputs.
    Functional,
    /// Model time only: no buffers, no execution. Flag-controlled
    /// loops run `while_iters` iterations. Use for paper-scale inputs.
    TimingOnly { while_iters: u32 },
}

/// Run configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Parameter values by name (converted per the declared type).
    pub params: Vec<(String, f64)>,
    /// Initial host contents by array name (missing arrays start
    /// zeroed).
    pub inputs: Vec<(String, Buffer)>,
    pub fidelity: Fidelity,
    pub hints: CostHints,
    /// Run the dynamic race detector during functional execution,
    /// collecting [`RunResult::races`]. Ignored in timing-only mode
    /// (nothing executes there).
    pub race_check: bool,
    /// Label for fault-injection site keys (the engine sets it to the
    /// cell label). `None` falls back to the program name, so direct
    /// `run` callers still get per-program fault determinism.
    pub fault_scope: Option<String>,
    /// Which interpreter executes kernels during functional runs.
    /// Constructors pick up [`crate::tier::default_tier`], so a CLI
    /// `--tier` flag reaches every internal construction site; use
    /// [`RunConfig::with_tier`] to pin a tier explicitly.
    pub tier: ExecTier,
}

impl RunConfig {
    pub fn functional(params: Vec<(String, f64)>) -> Self {
        RunConfig {
            params,
            inputs: Vec::new(),
            fidelity: Fidelity::Functional,
            hints: CostHints::default(),
            race_check: false,
            fault_scope: None,
            tier: crate::tier::default_tier(),
        }
    }

    pub fn timing(params: Vec<(String, f64)>, while_iters: u32) -> Self {
        RunConfig {
            params,
            inputs: Vec::new(),
            fidelity: Fidelity::TimingOnly { while_iters },
            hints: CostHints::default(),
            race_check: false,
            fault_scope: None,
            tier: crate::tier::default_tier(),
        }
    }

    pub fn with_input(mut self, name: &str, buf: Buffer) -> Self {
        self.inputs.push((name.into(), buf));
        self
    }

    pub fn with_hints(mut self, hints: CostHints) -> Self {
        self.hints = hints;
        self
    }

    pub fn with_race_check(mut self, on: bool) -> Self {
        self.race_check = on;
        self
    }

    pub fn with_fault_scope(mut self, scope: impl Into<String>) -> Self {
        self.fault_scope = Some(scope.into());
        self
    }

    pub fn with_tier(mut self, tier: ExecTier) -> Self {
        self.tier = tier;
        self
    }
}

/// Per-kernel execution statistics (what `nvprof` / `PGI_ACC_TIME`
/// showed the authors).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelStat {
    pub name: String,
    pub launches: u64,
    pub device_time: f64,
    /// `false` reproduces the paper's BFS discovery: the kernel never
    /// ran on the accelerator.
    pub ran_on_device: bool,
    pub config_label: String,
}

/// Result of a run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Total modeled wall time (kernels + transfers + host work).
    pub elapsed: f64,
    pub kernel_time: f64,
    pub transfer_time_s: f64,
    pub host_time: f64,
    pub kernel_stats: Vec<KernelStat>,
    pub transfers: TransferLedger,
    /// Iterations the flag-controlled loop executed (0 if none).
    pub while_iterations: u64,
    /// Average transfers per while-loop iteration (Table VII).
    pub transfers_per_while_iter: f64,
    /// Transfers outside the while loop (Table VII's "in total" row).
    pub transfers_outside_while: u64,
    /// Final host buffers (functional mode; empty in timing mode).
    pub host: Vec<Buffer>,
    /// A kernel with a known-wrong plan executed (validation is
    /// expected to fail).
    pub any_known_wrong: bool,
    /// Cross-thread conflicts found by the dynamic race detector
    /// (empty unless [`RunConfig::race_check`] was set), deduplicated
    /// per (kernel, array, kind, level) across launches.
    pub races: Vec<Race>,
    /// Accesses the race detector shadow-logged (0 when off).
    pub race_accesses: u64,
}

impl RunResult {
    /// Host buffer by array name.
    pub fn buffer<'a>(&'a self, c: &CompiledProgram, name: &str) -> Option<&'a Buffer> {
        let id = c.program.array_id(name)?;
        self.host.get(id.0 as usize)
    }
}

/// Execute a compiled program.
///
/// When fault injection is active the run is bounded by a step-budget
/// watchdog (armed here unless the engine already armed one around
/// the whole job): a hung interpreter loop or an injected kernel hang
/// unwinds with a typed [`paccport_faults::WatchdogTimeout`] payload
/// that is caught and converted into a `Timeout` error instead of
/// wedging the study.
pub fn run(c: &CompiledProgram, cfg: &RunConfig) -> Result<RunResult, String> {
    let _span = paccport_trace::span_attrs(
        "devsim.run",
        vec![("program".into(), c.program.name.clone())],
    );
    let armed_here = paccport_faults::active() && !paccport_faults::watchdog_armed();
    if armed_here {
        paccport_faults::arm_watchdog(paccport_faults::DEFAULT_STEP_BUDGET);
    }
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_inner(c, cfg)));
    if armed_here {
        paccport_faults::disarm_watchdog();
    }
    match out {
        Ok(r) => r,
        Err(payload) => match paccport_faults::timeout_of(payload.as_ref()) {
            Some(_) => Err(paccport_faults::describe_panic(payload.as_ref())),
            None => std::panic::resume_unwind(payload),
        },
    }
}

fn run_inner(c: &CompiledProgram, cfg: &RunConfig) -> Result<RunResult, String> {
    let spec = spec_for(c.options.target, c.options.host_compiler);
    let host_spec = host_cpu(c.options.host_compiler);
    let mut r = Runner::new(c, cfg, spec, host_spec)?;
    for s in &c.program.body {
        r.host_stmt(s)?;
    }
    r.finish()
}

/// What a launch needs to know about its kernel that cannot change
/// during a run, derived once in [`Runner::new`].
struct LaunchInfo<'a> {
    kernel: &'a Kernel,
    /// `None` makes the launch fail (a kernel the compiler dropped).
    plan: Option<&'a KernelPlan>,
    dist_rank: usize,
    /// [`tree_free_vars`] of the plan's cost tree.
    free: Vec<VarId>,
    /// Global arrays read and written, each sorted.
    reads: Vec<ArrayId>,
    writes: Vec<ArrayId>,
    /// Sorted union of `reads` and `writes`, flagged when read.
    touched: Vec<(ArrayId, bool)>,
    /// Index into [`Runner::stats`]; kernels sharing a name share it.
    stat: usize,
}

impl<'a> LaunchInfo<'a> {
    fn of_program(c: &'a CompiledProgram) -> Vec<LaunchInfo<'a>> {
        let kernels = c.program.kernels();
        kernels
            .iter()
            .enumerate()
            .map(|(i, k)| {
                let plan = c.plan(&k.name);
                let (reads, writes) = kernel_reads_writes(k);
                let touched = reads
                    .union(&writes)
                    .map(|a| (*a, reads.contains(a)))
                    .collect();
                LaunchInfo {
                    kernel: k,
                    plan,
                    dist_rank: plan.map_or(0, |p| dist_rank_of(&p.dist, k.rank())),
                    free: plan.map_or_else(Vec::new, |p| tree_free_vars(&p.cost)),
                    reads: reads.into_iter().collect(),
                    writes: writes.into_iter().collect(),
                    touched,
                    stat: kernels[..i]
                        .iter()
                        .position(|o| o.name == k.name)
                        .unwrap_or(i),
                }
            })
            .collect()
    }
}

struct Runner<'a> {
    c: &'a CompiledProgram,
    cfg: &'a RunConfig,
    spec: DeviceSpec,
    host_spec: DeviceSpec,
    functional: bool,
    params: Vec<V>,
    lens: Vec<usize>,
    host: Vec<Buffer>,
    dev: Vec<Buffer>,
    vars: Vec<Option<V>>,
    /// Host variables in scope, as the dynamic-cost model reads them.
    host_vars: VarSlots,
    resident: Vec<bool>,
    host_valid: Vec<bool>,
    ledger: TransferLedger,
    kernel_time: f64,
    transfer_time_s: f64,
    host_time: f64,
    /// Per-kernel launch invariants, shared with each launch so it can
    /// read them while updating the runner.
    kernels: Rc<[LaunchInfo<'a>]>,
    /// Per-kernel statistics by [`LaunchInfo::stat`], filled on first
    /// launch; `launch_order` lists the filled slots in that order.
    stats: Vec<Option<KernelStat>>,
    launch_order: Vec<usize>,
    /// Cost-tree evaluations over all launches, reported once per run
    /// (a per-launch counter update is a registry lock when metrics
    /// are on).
    tree_evals: u64,
    any_known_wrong: bool,
    while_iterations: u64,
    transfers_in_while: u64,
    in_while: bool,
    written_in_iter: BTreeSet<ArrayId>,
    races: Vec<Race>,
    /// Dedup key for `races` across launches of the same kernel.
    race_seen: BTreeSet<(String, String, crate::race::RaceKind, Option<usize>)>,
    race_accesses: u64,
    /// Arrays touched by at least one device-executed kernel (PGI's
    /// runtime elides `update`s for arrays with no device activity).
    device_active: Vec<bool>,
    /// Data-region nesting count per array. Kernels touching arrays
    /// *outside* any data region pay per-launch synchronization — the
    /// OpenACC semantics a 2014 compiler implements when the
    /// programmer omits `#pragma acc data` (the motivation for the
    /// paper's future-work Step 5).
    region_cover: Vec<u32>,
    /// Compile-once bytecode cache by kernel index (bytecode tier
    /// only): a kernel relaunched every while-loop iteration is
    /// lowered exactly once per run.
    bc: Vec<Option<crate::bytecode::KernelCode>>,
}

impl<'a> Runner<'a> {
    fn new(
        c: &'a CompiledProgram,
        cfg: &'a RunConfig,
        spec: DeviceSpec,
        host_spec: DeviceSpec,
    ) -> Result<Self, String> {
        let p = &c.program;
        // Bind parameters in declaration order.
        let mut params = Vec::with_capacity(p.params.len());
        for d in &p.params {
            let v = cfg
                .params
                .iter()
                .find(|(n, _)| *n == d.name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("missing parameter `{}`", d.name))?;
            params.push(match d.ty {
                Scalar::F32 | Scalar::F64 => V::F(v),
                _ => V::I(v as i64),
            });
        }
        // Array lengths.
        let empty_vars = fresh_vars(p);
        let mut lens = Vec::with_capacity(p.arrays.len());
        {
            let mut no_bufs: [Buffer; 0] = [];
            let mut scratch = empty_vars.clone();
            for a in &p.arrays {
                let scope = crate::interp::Scope {
                    vars: &mut scratch,
                    bufs: &mut no_bufs,
                    locals: None,
                    group: Default::default(),
                    tracker: None,
                };
                let l = crate::interp::eval(p, &params, &a.len, &scope).as_i();
                if l < 0 {
                    return Err(format!("array `{}` has negative length {l}", a.name));
                }
                lens.push(l as usize);
            }
        }
        let functional = matches!(cfg.fidelity, Fidelity::Functional);
        let (host, dev) = if functional {
            let mut host: Vec<Buffer> = p
                .arrays
                .iter()
                .zip(&lens)
                .map(|(a, l)| Buffer::zeroed(a.elem, *l))
                .collect();
            for (name, buf) in &cfg.inputs {
                let id = p
                    .array_id(name)
                    .ok_or_else(|| format!("unknown input array `{name}`"))?;
                if buf.len() != lens[id.0 as usize] {
                    return Err(format!(
                        "input `{name}` has length {} but the program expects {}",
                        buf.len(),
                        lens[id.0 as usize]
                    ));
                }
                host[id.0 as usize] = buf.clone();
            }
            let dev = host
                .iter()
                .map(|b| Buffer::zeroed(b.elem(), b.len()))
                .collect();
            (host, dev)
        } else {
            (Vec::new(), Vec::new())
        };
        let kernels = LaunchInfo::of_program(c);
        // Which arrays any device-executed kernel touches.
        let mut device_active = vec![false; p.arrays.len()];
        for info in &kernels {
            if let Some(plan) = info.plan {
                if plan.exec != ExecStrategy::HostSequential {
                    for a in used_arrays(info.kernel) {
                        device_active[a.0 as usize] = true;
                    }
                }
            }
        }
        Ok(Runner {
            c,
            cfg,
            spec,
            host_spec,
            functional,
            params,
            lens,
            host,
            dev,
            host_vars: VarSlots::new(empty_vars.len()),
            vars: empty_vars,
            resident: vec![false; p.arrays.len()],
            host_valid: vec![true; p.arrays.len()],
            ledger: TransferLedger::default(),
            kernel_time: 0.0,
            transfer_time_s: 0.0,
            host_time: 0.0,
            stats: kernels.iter().map(|_| None).collect(),
            bc: kernels.iter().map(|_| None).collect(),
            kernels: kernels.into(),
            launch_order: Vec::new(),
            tree_evals: 0,
            any_known_wrong: false,
            while_iterations: 0,
            transfers_in_while: 0,
            in_while: false,
            written_in_iter: BTreeSet::new(),
            races: Vec::new(),
            race_seen: BTreeSet::new(),
            race_accesses: 0,
            device_active,
            region_cover: vec![0; p.arrays.len()],
        })
    }

    fn bytes_of(&self, a: ArrayId) -> u64 {
        (self.lens[a.0 as usize] * self.c.program.array(a).elem.size_bytes()) as u64
    }

    fn note_transfer(&mut self) {
        if self.in_while {
            self.transfers_in_while += 1;
        }
    }

    fn h2d(&mut self, a: ArrayId) {
        let bytes = self.bytes_of(a);
        self.ledger.record_h2d(bytes);
        self.transfer_time_s += transfer_time(&self.spec, bytes);
        self.note_transfer();
        if self.functional {
            self.dev[a.0 as usize] = self.host[a.0 as usize].clone();
        }
        self.resident[a.0 as usize] = true;
    }

    fn d2h(&mut self, a: ArrayId) {
        let bytes = self.bytes_of(a);
        self.ledger.record_d2h(bytes);
        self.transfer_time_s += transfer_time(&self.spec, bytes);
        self.note_transfer();
        if self.functional {
            self.host[a.0 as usize] = self.dev[a.0 as usize].clone();
        }
        self.host_valid[a.0 as usize] = true;
    }

    /// Region-exit copy-out: always counted, but the data copy is
    /// skipped when the host copy is already the authoritative one.
    fn d2h_region_exit(&mut self, a: ArrayId) {
        if self.host_valid[a.0 as usize] {
            let bytes = self.bytes_of(a);
            self.ledger.record_d2h(bytes);
            self.transfer_time_s += transfer_time(&self.spec, bytes);
            self.note_transfer();
        } else {
            self.d2h(a);
        }
    }

    fn ensure_on_device(&mut self, a: ArrayId) {
        if !self.resident[a.0 as usize] {
            self.h2d(a);
        }
    }

    fn ensure_on_host(&mut self, a: ArrayId) {
        if !self.host_valid[a.0 as usize] {
            self.d2h(a);
        }
    }

    fn host_stmt(&mut self, s: &HostStmt) -> Result<(), String> {
        match s {
            HostStmt::DataRegion { arrays, body } => {
                for a in arrays {
                    self.region_cover[a.0 as usize] += 1;
                    let intent = self.c.program.array(*a).intent;
                    if intent.copies_in() {
                        self.h2d(*a);
                    } else {
                        // `create` / copyout-only: allocate, no copy.
                        self.resident[a.0 as usize] = true;
                        if self.functional {
                            let d = self.c.program.array(*a);
                            self.dev[a.0 as usize] =
                                Buffer::zeroed(d.elem, self.lens[a.0 as usize]);
                        }
                    }
                }
                for s in body {
                    self.host_stmt(s)?;
                }
                for a in arrays {
                    self.region_cover[a.0 as usize] -= 1;
                    let intent = self.c.program.array(*a).intent;
                    if intent.copies_out() {
                        // The runtime performs the copy-out regardless
                        // (it is counted and timed), but coherent host
                        // data is never clobbered by a stale device
                        // copy (host-fallback kernels wrote the host
                        // arrays directly).
                        self.d2h_region_exit(*a);
                    }
                    self.resident[a.0 as usize] = false;
                }
                Ok(())
            }
            HostStmt::Launch(k) => self.launch(k),
            HostStmt::HostLoop { var, lo, hi, body } => {
                let lo = self.eval_host(lo).as_i();
                let hi = self.eval_host(hi).as_i();
                for i in lo..hi {
                    self.vars[var.0 as usize] = Some(V::I(i));
                    self.host_vars.set(*var, Some(i as f64));
                    for s in body {
                        self.host_stmt(s)?;
                    }
                }
                self.host_vars.set(*var, None);
                Ok(())
            }
            HostStmt::WhileFlag {
                flag,
                max_iters,
                body,
            } => {
                let was_in_while = self.in_while;
                self.in_while = true;
                let mut iters: u64 = 0;
                loop {
                    self.written_in_iter.clear();
                    for s in body {
                        self.host_stmt(s)?;
                    }
                    // CAPS's conservative refresh of copyin arrays
                    // modified on the device (Table VII's third
                    // per-iteration transfer).
                    if self.c.transfers == TransferPolicy::PerIteration {
                        let refresh: Vec<ArrayId> = self
                            .written_in_iter
                            .iter()
                            .copied()
                            .filter(|a| {
                                self.c.program.array(*a).intent == Intent::In
                                    && self.resident[a.0 as usize]
                            })
                            .collect();
                        for a in refresh {
                            self.d2h(a);
                        }
                    }
                    iters += 1;
                    let continue_ = match self.cfg.fidelity {
                        Fidelity::Functional => {
                            let b = &self.host[flag.0 as usize];
                            b.get(0) != 0.0
                        }
                        Fidelity::TimingOnly { while_iters } => iters < while_iters as u64,
                    };
                    if !continue_ || iters >= *max_iters as u64 {
                        break;
                    }
                }
                self.while_iterations += iters;
                self.in_while = was_in_while;
                Ok(())
            }
            HostStmt::HostAssign { var, value, .. } => {
                if self.functional {
                    let v = self.eval_host(value);
                    self.vars[var.0 as usize] = Some(v);
                    self.host_vars.set(*var, Some(v.as_f()));
                }
                Ok(())
            }
            HostStmt::HostStore {
                array,
                index,
                value,
            } => {
                if self.functional {
                    let i = self.eval_host(index).as_i() as usize;
                    let v = self.eval_host(value).as_f();
                    self.host[array.0 as usize].set(i, v);
                }
                self.host_valid[array.0 as usize] = true;
                self.resident[array.0 as usize] = false;
                Ok(())
            }
            HostStmt::Update { array, dir } => {
                // PGI elides updates of arrays no device kernel
                // touches (its BFS ran entirely on the host).
                if !self.device_active[array.0 as usize] {
                    return Ok(());
                }
                match dir {
                    Dir::ToDevice => self.h2d(*array),
                    Dir::ToHost => self.d2h(*array),
                }
                Ok(())
            }
            HostStmt::HostCompute { instr, .. } => {
                let n = self.try_eval_host_f(instr).unwrap_or(0.0);
                self.host_time += n / self.host_spec.single_thread_ips;
                Ok(())
            }
            HostStmt::EnterData { arrays } => {
                for a in arrays {
                    self.region_cover[a.0 as usize] += 1;
                    let intent = self.c.program.array(*a).intent;
                    if intent.copies_in() {
                        self.h2d(*a);
                    } else {
                        self.resident[a.0 as usize] = true;
                        if self.functional {
                            let d = self.c.program.array(*a);
                            self.dev[a.0 as usize] =
                                Buffer::zeroed(d.elem, self.lens[a.0 as usize]);
                        }
                    }
                }
                Ok(())
            }
            HostStmt::ExitData { arrays } => {
                for a in arrays {
                    if self.region_cover[a.0 as usize] == 0 {
                        return Err(format!(
                            "exit data for `{}` without a matching enter data",
                            self.c.program.array(*a).name
                        ));
                    }
                    self.region_cover[a.0 as usize] -= 1;
                    let intent = self.c.program.array(*a).intent;
                    if intent.copies_out() {
                        self.d2h_region_exit(*a);
                    }
                    self.resident[a.0 as usize] = false;
                }
                Ok(())
            }
        }
    }

    fn eval_host(&mut self, e: &paccport_ir::Expr) -> V {
        let scope = crate::interp::Scope {
            vars: &mut self.vars,
            bufs: &mut self.host,
            locals: None,
            group: Default::default(),
            tracker: None,
        };
        crate::interp::eval(&self.c.program, &self.params, e, &scope)
    }

    /// Host evaluation that tolerates timing-only mode (no buffers) and
    /// expressions that are not host-evaluable at all. Kernel loop
    /// bounds may reference *outer kernel loop variables* (triangular
    /// nests); those variables only exist per-lane inside the launch,
    /// so launch-time extent estimation must return `None` for them
    /// instead of tripping the interpreter's undefined-variable panic.
    fn try_eval_host_f(&mut self, e: &paccport_ir::Expr) -> Option<f64> {
        if self.functional {
            if !vars_defined(e, &self.vars) {
                return None;
            }
            Some(self.eval_host(e).as_f())
        } else {
            try_eval(e, &self.params, &self.host_vars)
        }
    }

    fn launch(&mut self, k: &Kernel) -> Result<(), String> {
        if paccport_faults::active() {
            let scope = self
                .cfg
                .fault_scope
                .as_deref()
                .unwrap_or(&self.c.program.name);
            let site = format!("{scope}#{}", k.name);
            if paccport_faults::inject(paccport_faults::FaultKind::DeviceFault, &site) {
                return Err(format!(
                    "{} transient device fault launching `{}`",
                    paccport_faults::INJECTED,
                    k.name
                ));
            }
            if paccport_faults::should_inject(paccport_faults::FaultKind::KernelHang, &site) {
                paccport_faults::record(paccport_faults::FaultKind::KernelHang, &site);
                paccport_faults::hang();
            }
        }
        let kernels = Rc::clone(&self.kernels);
        let ki = kernels
            .iter()
            .position(|info| std::ptr::eq(info.kernel, k))
            .expect("launched kernels come from the compiled program");
        let info = &kernels[ki];
        let plan = info
            .plan
            .ok_or_else(|| format!("no plan for kernel `{}`", k.name))?;
        // Evaluate loop extents with host variables.
        let mut extents: Vec<u64> = Vec::with_capacity(k.loops.len());
        for lp in &k.loops {
            let lo = self.try_eval_host_f(&lp.lo).unwrap_or(0.0);
            let hi = self.try_eval_host_f(&lp.hi).unwrap_or(lo);
            extents.push((hi - lo).max(0.0) as u64);
        }
        let dist_rank = info.dist_rank;
        let dims = plan.dist.launch_dims(&extents);
        // Serialized executions carry a cost tree that already covers
        // the whole nest (rank-0 lowering), so the multiplier is 1.
        let serialized = matches!(
            plan.exec,
            ExecStrategy::DeviceSequential | ExecStrategy::HostSequential
        );
        let n_par: u64 = if serialized {
            1
        } else {
            match plan.dist {
                DistSpec::GroupedPerIter { group_size } => {
                    extents.first().copied().unwrap_or(0) * group_size as u64
                }
                DistSpec::Grouped { .. } => dims.total_threads(),
                _ => {
                    if dist_rank == 0 {
                        1
                    } else {
                        extents.iter().take(dist_rank).product()
                    }
                }
            }
        };
        let (per_iter, evals) = kernel_dyn_cost(
            k,
            plan,
            &info.free,
            dist_rank,
            &self.params,
            &mut self.host_vars,
            &self.cfg.hints,
        );
        self.tree_evals += evals as u64;
        let t = kernel_launch_time(&self.spec, &self.host_spec, plan, &dims, n_par, &per_iter);
        let on_device = plan.exec != ExecStrategy::HostSequential;
        if on_device {
            self.kernel_time += t;
        } else {
            self.host_time += t;
        }

        // Data movement.
        if on_device {
            for &(a, read) in &info.touched {
                // Uncovered arrays are re-synchronized around every
                // launch (no enclosing data region to keep them
                // resident); covered arrays move at most once.
                if self.region_cover[a.0 as usize] == 0 && read {
                    self.h2d(a);
                } else {
                    self.ensure_on_device(a);
                }
            }
            for a in &info.writes {
                self.host_valid[a.0 as usize] = false;
                self.written_in_iter.insert(*a);
            }
        } else {
            for a in info.reads.iter().chain(&info.writes) {
                self.ensure_on_host(*a);
            }
            for a in &info.writes {
                self.resident[a.0 as usize] = false;
            }
        }

        // Functional execution.
        if self.functional {
            let fidelity = match plan.correctness {
                Correctness::Correct => KernelFidelity::Exact,
                Correctness::Wrong { .. } => KernelFidelity::DropTreePhases,
            };
            let p = &self.c.program;
            let tracker = self.cfg.race_check.then(|| {
                let global_names = p.arrays.iter().map(|a| a.name.clone()).collect();
                let local_names = match &k.body {
                    KernelBody::Grouped(g) => g.locals.iter().map(|l| l.name.clone()).collect(),
                    KernelBody::Simple(_) => Vec::new(),
                };
                RaceTracker::new(
                    &k.name,
                    global_names,
                    local_names,
                    fidelity == KernelFidelity::DropTreePhases,
                )
            });
            let bufs: &mut [Buffer] = if on_device {
                &mut self.dev
            } else {
                &mut self.host
            };
            match self.cfg.tier {
                ExecTier::Tree => exec_kernel_traced(
                    p,
                    &self.params,
                    k,
                    &mut self.vars,
                    bufs,
                    fidelity,
                    tracker.as_ref(),
                ),
                ExecTier::Bytecode => {
                    let code =
                        self.bc[ki].get_or_insert_with(|| crate::bytecode::compile_kernel(p, k));
                    crate::bytecode::exec_kernel_bc(
                        code,
                        &self.params,
                        k,
                        &mut self.vars,
                        bufs,
                        fidelity,
                        tracker.as_ref(),
                    );
                }
            }
            if let Some(t) = tracker {
                self.race_accesses += t.accesses();
                paccport_trace::add("race.accesses", t.accesses());
                paccport_trace::add("race.conflicts", t.conflicts());
                for race in t.races() {
                    let key = (
                        race.kernel.clone(),
                        race.array.clone(),
                        race.kind,
                        race.level,
                    );
                    if self.race_seen.insert(key) {
                        self.races.push(race);
                    }
                }
            }
        }
        if matches!(plan.correctness, Correctness::Wrong { .. }) {
            self.any_known_wrong = true;
        }
        // Uncovered written arrays are copied back after every launch
        // (per-launch synchronization without a data region).
        if on_device {
            for a in &info.writes {
                if self.region_cover[a.0 as usize] == 0 {
                    self.d2h(*a);
                }
            }
        }

        // Stats.
        let slot = &mut self.stats[info.stat];
        if slot.is_none() {
            self.launch_order.push(info.stat);
        }
        let stat = slot.get_or_insert_with(|| KernelStat {
            name: k.name.clone(),
            launches: 0,
            device_time: 0.0,
            ran_on_device: on_device,
            config_label: plan.config_label.clone(),
        });
        stat.launches += 1;
        stat.device_time += t;
        Ok(())
    }

    fn finish(mut self) -> Result<RunResult, String> {
        // Final copy-out of dirty output arrays not already synced.
        for i in 0..self.c.program.arrays.len() {
            let a = ArrayId(i as u32);
            let intent = self.c.program.array(a).intent;
            if intent.copies_out() && !self.host_valid[i] && self.resident[i] {
                self.d2h(a);
            }
        }
        let transfers_per_while_iter = if self.while_iterations > 0 {
            self.transfers_in_while as f64 / self.while_iterations as f64
        } else {
            0.0
        };
        let elapsed = self.kernel_time + self.transfer_time_s + self.host_time;
        paccport_trace::add("dyncost.tree_evals", self.tree_evals);
        let stats: Vec<KernelStat> = self
            .launch_order
            .iter()
            .map(|i| self.stats[*i].take().expect("launched kernels have stats"))
            .collect();
        // Simulated hardware counters → the metrics registry: what
        // `PGI_ACC_TIME=1` + nvprof gave the paper's authors, as
        // Prometheus series. One observation per kernel per run, and
        // host compute outside any kernel gets its own series, so
        // summing `devsim_kernel_seconds`, `devsim_transfer_seconds`
        // and `devsim_host_seconds` reproduces `devsim_run_seconds`
        // exactly (the cross-check test holds the registry to that).
        if paccport_trace::metrics::metrics_enabled() {
            use paccport_trace::metrics::{counter_add, observe};
            for s in &stats {
                let exec = if s.ran_on_device { "device" } else { "host" };
                counter_add(
                    "devsim_kernel_launches_total",
                    &[("kernel", &s.name), ("exec", exec)],
                    s.launches,
                );
                observe(
                    "devsim_kernel_seconds",
                    &[("kernel", &s.name), ("exec", exec)],
                    s.device_time,
                );
            }
            counter_add(
                "devsim_transfer_bytes_total",
                &[("dir", "h2d")],
                self.ledger.h2d_bytes,
            );
            counter_add(
                "devsim_transfer_bytes_total",
                &[("dir", "d2h")],
                self.ledger.d2h_bytes,
            );
            counter_add(
                "devsim_transfer_count_total",
                &[("dir", "h2d")],
                self.ledger.h2d_count,
            );
            counter_add(
                "devsim_transfer_count_total",
                &[("dir", "d2h")],
                self.ledger.d2h_count,
            );
            counter_add("devsim_while_iterations_total", &[], self.while_iterations);
            observe("devsim_transfer_seconds", &[], self.transfer_time_s);
            // `host_time` includes host-fallback kernel launches, but
            // those are already charged to their kernel's series; only
            // the non-kernel remainder (host statements between
            // launches) is new information.
            let host_kernel: f64 = stats
                .iter()
                .filter(|s| !s.ran_on_device)
                .map(|s| s.device_time)
                .sum();
            observe("devsim_host_seconds", &[], self.host_time - host_kernel);
            observe("devsim_run_seconds", &[], elapsed);
        }
        Ok(RunResult {
            elapsed,
            kernel_time: self.kernel_time,
            transfer_time_s: self.transfer_time_s,
            host_time: self.host_time,
            kernel_stats: stats,
            transfers: self.ledger,
            while_iterations: self.while_iterations,
            transfers_per_while_iter,
            transfers_outside_while: self.ledger.total_count() - self.transfers_in_while,
            host: self.host,
            any_known_wrong: self.any_known_wrong,
            races: self.races,
            race_accesses: self.race_accesses,
        })
    }
}

/// True iff every `Var` the expression reads is defined in `vars`.
fn vars_defined(e: &paccport_ir::Expr, vars: &[Option<crate::interp::V>]) -> bool {
    use paccport_ir::Expr;
    match e {
        Expr::FConst(_) | Expr::IConst(_) | Expr::BConst(_) | Expr::Param(_) | Expr::Special(_) => {
            true
        }
        Expr::Var(id) => vars.get(id.0 as usize).is_some_and(|slot| slot.is_some()),
        Expr::Load { index, .. } => vars_defined(index, vars),
        Expr::Un(_, a) | Expr::Cast(_, a) => vars_defined(a, vars),
        Expr::Bin(_, a, b) | Expr::Cmp(_, a, b) => vars_defined(a, vars) && vars_defined(b, vars),
        Expr::Fma(a, b, c) | Expr::Select(a, b, c) => {
            vars_defined(a, vars) && vars_defined(b, vars) && vars_defined(c, vars)
        }
    }
}

/// Arrays a kernel reads and writes (global space only).
pub fn kernel_reads_writes(k: &Kernel) -> (BTreeSet<ArrayId>, BTreeSet<ArrayId>) {
    let mut reads = BTreeSet::new();
    let mut writes = BTreeSet::new();
    let mut scan = |b: &paccport_ir::Block| {
        b.walk(&mut |s| {
            match s {
                Stmt::Store {
                    space: MemSpace::Global,
                    array,
                    ..
                }
                | Stmt::Atomic { array, .. } => {
                    writes.insert(*array);
                }
                _ => {}
            }
            s.for_each_expr(&mut |e| {
                e.walk(&mut |e| {
                    if let paccport_ir::Expr::Load {
                        space: MemSpace::Global,
                        array,
                        ..
                    } = e
                    {
                        reads.insert(*array);
                    }
                })
            });
        });
    };
    match &k.body {
        KernelBody::Simple(b) => scan(b),
        KernelBody::Grouped(g) => {
            for p in &g.phases {
                scan(p);
            }
        }
    }
    for lp in &k.loops {
        for e in [&lp.lo, &lp.hi] {
            e.walk(&mut |e| {
                if let paccport_ir::Expr::Load {
                    space: MemSpace::Global,
                    array,
                    ..
                } = e
                {
                    reads.insert(*array);
                }
            });
        }
    }
    if let Some(rr) = &k.region_reduction {
        writes.insert(rr.dest);
        rr.value.walk(&mut |e| {
            if let paccport_ir::Expr::Load {
                space: MemSpace::Global,
                array,
                ..
            } = e
            {
                reads.insert(*array);
            }
        });
    }
    (reads, writes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paccport_compilers::{compile, CompileOptions, CompilerId};
    use paccport_ir::{ld, st, Expr, Intent, Kernel, ParallelLoop, ProgramBuilder, E};

    fn saxpy_program(independent: bool) -> paccport_ir::Program {
        let mut b = ProgramBuilder::new("saxpy");
        let n = b.iparam("n");
        let x = b.array("x", Scalar::F32, n, Intent::In);
        let y = b.array("y", Scalar::F32, n, Intent::InOut);
        let i = b.var("i");
        let mut lp = ParallelLoop::new(i, Expr::iconst(0), Expr::param(n));
        lp.clauses.independent = independent;
        let k = Kernel::simple(
            "saxpy",
            vec![lp],
            paccport_ir::Block::new(vec![st(y, i, E::from(2.0) * ld(x, i) + ld(y, i))]),
        );
        b.finish(vec![HostStmt::Launch(k)])
    }

    #[test]
    fn functional_run_produces_correct_results() {
        let p = saxpy_program(true);
        let c = compile(CompilerId::Caps, &p, &CompileOptions::gpu()).unwrap();
        let cfg = RunConfig::functional(vec![("n".into(), 64.0)])
            .with_input("x", Buffer::F32((0..64).map(|v| v as f32).collect()))
            .with_input("y", Buffer::F32(vec![1.0; 64]));
        let r = run(&c, &cfg).unwrap();
        let y = r.buffer(&c, "y").unwrap().as_f32();
        for (i, v) in y.iter().enumerate() {
            assert_eq!(*v, 2.0 * i as f32 + 1.0);
        }
        // x copied in, y copied in and out.
        assert_eq!(r.transfers.h2d_count, 2);
        assert_eq!(r.transfers.d2h_count, 1);
        assert!(r.elapsed > 0.0);
        assert!(r.kernel_stats[0].ran_on_device);
    }

    #[test]
    fn sequential_baseline_is_much_slower_than_gridify() {
        let base = saxpy_program(false); // CAPS gang(1) bug
        let opt = saxpy_program(true); // gridify
        let cb = compile(CompilerId::Caps, &base, &CompileOptions::gpu()).unwrap();
        let co = compile(CompilerId::Caps, &opt, &CompileOptions::gpu()).unwrap();
        let cfg = RunConfig::timing(vec![("n".into(), 4_000_000.0)], 1);
        let tb = run(&cb, &cfg).unwrap().kernel_time;
        let to = run(&co, &cfg).unwrap().kernel_time;
        assert!(
            tb / to > 100.0,
            "sequential {tb} vs parallel {to}: ratio {}",
            tb / to
        );
    }

    #[test]
    fn timing_only_mode_needs_no_buffers() {
        let p = saxpy_program(true);
        let c = compile(CompilerId::Caps, &p, &CompileOptions::gpu()).unwrap();
        // A size that would be ~64 GB if allocated.
        let cfg = RunConfig::timing(vec![("n".into(), 8e9)], 1);
        let r = run(&c, &cfg).unwrap();
        assert!(r.host.is_empty());
        assert!(r.elapsed > 0.0);
        assert!(r.transfers.total_bytes() > 8_000_000_000);
    }

    #[test]
    fn host_fallback_runs_but_not_on_device() {
        // Indirect store → PGI keeps it on the host.
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let idx = b.array("idx", Scalar::I32, n, Intent::In);
        let out = b.array("out", Scalar::F32, n, Intent::InOut);
        let i = b.var("i");
        let mut lp = ParallelLoop::new(i, Expr::iconst(0), Expr::param(n));
        lp.clauses.independent = true;
        let k = Kernel::simple(
            "scatter",
            vec![lp],
            paccport_ir::Block::new(vec![st(out, ld(idx, i), 1.0)]),
        );
        let p = b.finish(vec![HostStmt::Launch(k)]);
        let c = compile(CompilerId::Pgi, &p, &CompileOptions::gpu()).unwrap();
        let perm: Vec<i32> = (0..16).rev().collect();
        let cfg =
            RunConfig::functional(vec![("n".into(), 16.0)]).with_input("idx", Buffer::I32(perm));
        let r = run(&c, &cfg).unwrap();
        assert!(!r.kernel_stats[0].ran_on_device);
        // Results still correct — computed on the host.
        assert!(r
            .buffer(&c, "out")
            .unwrap()
            .as_f32()
            .iter()
            .all(|v| *v == 1.0));
        // No kernel-driven transfers.
        assert_eq!(r.transfers.total_count(), 0);
    }

    #[test]
    fn race_check_is_clean_on_saxpy() {
        let p = saxpy_program(true);
        let c = compile(CompilerId::Caps, &p, &CompileOptions::gpu()).unwrap();
        let cfg = RunConfig::functional(vec![("n".into(), 16.0)])
            .with_input("x", Buffer::F32(vec![1.0; 16]))
            .with_input("y", Buffer::F32(vec![1.0; 16]))
            .with_race_check(true);
        let r = run(&c, &cfg).unwrap();
        assert!(r.races.is_empty(), "{:?}", r.races);
        // 2 loads + 1 store per iteration.
        assert_eq!(r.race_accesses, 48);
    }

    #[test]
    fn race_check_flags_shared_accumulator() {
        // out[0] = out[0] + x[i] for every parallel iteration — the
        // effective schedule of a lost-update miscompilation.
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let x = b.array("x", Scalar::F32, n, Intent::In);
        let out = b.array("acc", Scalar::F32, 1i64, Intent::InOut);
        let i = b.var("i");
        let mut lp = ParallelLoop::new(i, Expr::iconst(0), Expr::param(n));
        lp.clauses.independent = true;
        let k = Kernel::simple(
            "accumulate",
            vec![lp],
            paccport_ir::Block::new(vec![st(out, 0i64, ld(out, 0i64) + ld(x, i))]),
        );
        let p = b.finish(vec![HostStmt::Launch(k)]);
        let c = compile(CompilerId::Caps, &p, &CompileOptions::gpu()).unwrap();
        let cfg = RunConfig::functional(vec![("n".into(), 8.0)])
            .with_input("x", Buffer::F32(vec![1.0; 8]))
            .with_race_check(true);
        let r = run(&c, &cfg).unwrap();
        let ww = r
            .races
            .iter()
            .find(|x| x.kind == crate::race::RaceKind::WriteWrite)
            .expect("lost update must be a write-write race");
        assert_eq!(ww.array, "acc");
        assert_eq!(ww.level, Some(0));
        let d = ww.describe();
        assert!(d.contains("`acc`[0]"), "{d}");
        assert!(d.contains("(0)") && d.contains("(1)"), "{d}");
        // Off by default: same run without the flag records nothing.
        let cfg_off = RunConfig::functional(vec![("n".into(), 8.0)])
            .with_input("x", Buffer::F32(vec![1.0; 8]));
        let r_off = run(&c, &cfg_off).unwrap();
        assert!(r_off.races.is_empty());
        assert_eq!(r_off.race_accesses, 0);
    }

    #[test]
    fn missing_param_is_an_error() {
        let p = saxpy_program(true);
        let c = compile(CompilerId::Caps, &p, &CompileOptions::gpu()).unwrap();
        let cfg = RunConfig::functional(vec![]);
        assert!(run(&c, &cfg).is_err());
    }

    #[test]
    fn wrong_input_length_is_an_error() {
        let p = saxpy_program(true);
        let c = compile(CompilerId::Caps, &p, &CompileOptions::gpu()).unwrap();
        let cfg = RunConfig::functional(vec![("n".into(), 64.0)])
            .with_input("x", Buffer::F32(vec![0.0; 3]));
        assert!(run(&c, &cfg).is_err());
    }
}

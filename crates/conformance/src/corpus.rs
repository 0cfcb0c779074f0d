//! Named, hand-written conformance cases.
//!
//! Every bug the project has found by hand gets pinned here as a
//! first-class [`Case`], so the differential harness re-checks it on
//! every run alongside the random stream:
//!
//! * `lone_store` — the kernel shape whose single store used to be
//!   paired with itself by the static dependence analysis;
//! * `if_scope` — branch-local `Let` bindings around the validator's
//!   save/restore of the defined-variable set;
//! * `caps_mic_reduction` / `grouped_tree_sum` — the CAPS
//!   `reduction`-on-MIC miscompilation, which must classify as
//!   *expected* divergence (if the quirk model stopped firing, the
//!   corpus test fails — silent passes are regressions too);
//! * `saxpy_update_sandwich` — `update host`/`update device` inside a
//!   data region, the Table VII transfer pattern;
//! * `whileflag_countdown` — the BFS-style dynamic convergence loop;
//! * `neg_zero_identity` — `-0.0` through the float-zero identities
//!   that `simplify` used to fold inexactly;
//! * `grouped_i32_reduction` — an `I32` accumulator through
//!   `reduction_to_grouped`, whose shared buffer used to be hardcoded
//!   to `F32`;
//! * `self_referential_sum` — `t = t + (z[..] + t)`, whose term reads
//!   the accumulator, which `reduction_to_grouped` used to rewrite as
//!   a sum reduction anyway.

use crate::generate::Case;
use paccport_devsim::Buffer;
use paccport_ir::builder::ProgramBuilder;
use paccport_ir::kernel::{Kernel, ParallelLoop, ReduceOp, Reduction};
use paccport_ir::stmt::Block;
use paccport_ir::types::{Intent, Scalar};
use paccport_ir::{for_, if_else, ld, let_, st, Dir, Expr, HostStmt, E};

/// All named corpus cases.
pub fn corpus() -> Vec<(&'static str, Case)> {
    vec![
        ("lone_store", lone_store()),
        ("if_scope", if_scope()),
        ("caps_mic_reduction", caps_mic_reduction()),
        ("grouped_tree_sum", grouped_tree_sum()),
        ("saxpy_update_sandwich", saxpy_update_sandwich()),
        ("whileflag_countdown", whileflag_countdown()),
        ("neg_zero_identity", neg_zero_identity()),
        ("grouped_i32_reduction", grouped_i32_reduction()),
        ("self_referential_sum", self_referential_sum()),
    ]
}

fn base_inputs(n: usize) -> Vec<(String, Buffer)> {
    vec![
        (
            "x".to_string(),
            Buffer::F32((0..n).map(|i| (i % 7 + 1) as f32).collect()),
        ),
        (
            "y".to_string(),
            Buffer::F32((0..n).map(|i| (i % 3 + 1) as f32).collect()),
        ),
    ]
}

/// A kernel whose whole body is one store: the shape whose write used
/// to be reported as depending on itself by the dependence analysis.
fn lone_store() -> Case {
    let mut b = ProgramBuilder::new("lone_store");
    let n = b.iparam("n");
    let x = b.array("x", Scalar::F32, n, Intent::In);
    let y = b.array("y", Scalar::F32, n, Intent::InOut);
    let i = b.var("i");
    let k = Kernel::simple(
        "scale",
        vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
        Block::new(vec![st(y, i, ld(x, i) * E::from(3.0))]),
    );
    let program = b.finish(vec![HostStmt::Launch(k)]);
    Case {
        seed: 0,
        index: 0,
        program,
        params: vec![("n".to_string(), 6.0)],
        inputs: base_inputs(6),
    }
}

/// Branch-local `Let` bindings: each `If` arm defines its own scratch
/// variable, exercising the validator's save/restore of the defined
/// set around the two arms.
fn if_scope() -> Case {
    let mut b = ProgramBuilder::new("if_scope");
    let n = b.iparam("n");
    let x = b.array("x", Scalar::F32, n, Intent::In);
    let y = b.array("y", Scalar::F32, n, Intent::InOut);
    let i = b.var("i");
    let t = b.var("t");
    let u = b.var("u");
    let w = b.var("w");
    let k = Kernel::simple(
        "branchy",
        vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
        Block::new(vec![
            let_(t, Scalar::F32, ld(x, i)),
            if_else(
                E::from(t).gt(E::from(2.0)),
                vec![let_(u, Scalar::F32, E::from(t) * E::from(2.0)), st(y, i, u)],
                vec![let_(w, Scalar::F32, E::from(t) - E::from(0.5)), st(y, i, w)],
            ),
        ]),
    );
    let program = b.finish(vec![HostStmt::Launch(k)]);
    Case {
        seed: 0,
        index: 1,
        program,
        params: vec![("n".to_string(), 6.0)],
        inputs: base_inputs(6),
    }
}

/// The CAPS `reduction` recognition prefix. On the MIC target the
/// quirk model drops the shared-memory tree phases, so this case must
/// classify as expected divergence on `caps/5110P` — see the test
/// below, which pins exactly that.
fn caps_mic_reduction() -> Case {
    let mut b = ProgramBuilder::new("caps_mic_reduction");
    let n = b.iparam("n");
    let x = b.array("x", Scalar::F32, n, Intent::In);
    let y = b.array("y", Scalar::F32, n, Intent::InOut);
    let i = b.var("i");
    let acc = b.var("acc");
    let kv = b.var("kv");
    let mut k = Kernel::simple(
        "dot",
        vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
        Block::new(vec![
            let_(acc, Scalar::F32, 0.0f64),
            for_(
                kv,
                0i64,
                E::from(n),
                vec![paccport_ir::assign(acc, E::from(acc) + ld(x, kv))],
            ),
            st(y, i, acc),
        ]),
    );
    k.reduction = Some(Reduction {
        op: ReduceOp::Add,
        acc,
    });
    let program = b.finish(vec![HostStmt::Launch(k)]);
    Case {
        seed: 0,
        index: 2,
        program,
        params: vec![("n".to_string(), 6.0)],
        inputs: base_inputs(6),
    }
}

/// A hand-written 4-lane grouped tree sum (the OpenCL comparison
/// path). The interior phases are exactly what the CAPS MIC quirk
/// drops, so divergence there is expected — and the hand-OpenCL legs
/// must stay bitwise correct.
fn grouped_tree_sum() -> Case {
    use paccport_ir::expr::SpecialVar;
    use paccport_ir::kernel::{GroupedBody, KernelBody};
    use paccport_ir::types::{ArrayId, LocalArrayDecl};
    use paccport_ir::{if_, ld_local, st_local};

    let mut b = ProgramBuilder::new("grouped_tree_sum");
    let n = b.iparam("n");
    let x = b.array("x", Scalar::F32, E::from(n) * E::from(n), Intent::In);
    let y = b.array("y", Scalar::F32, n, Intent::InOut);
    let g = b.var("g");
    let sdata = ArrayId(0); // index into the kernel-local table
    let lid = || E(Expr::Special(SpecialVar::LocalId(0)));
    let k = Kernel {
        name: "tree_sum".to_string(),
        loops: vec![ParallelLoop::new(g, Expr::iconst(0), Expr::param(n))],
        body: KernelBody::Grouped(GroupedBody {
            group_size: 4,
            locals: vec![LocalArrayDecl {
                name: "sdata".to_string(),
                elem: Scalar::F32,
                len: 4,
            }],
            phases: vec![
                Block::new(vec![st_local(
                    sdata,
                    lid(),
                    ld(x, E::from(g) * 4i64 + lid()),
                )]),
                Block::new(vec![if_(
                    lid().lt(2i64),
                    vec![st_local(
                        sdata,
                        lid(),
                        ld_local(sdata, lid()) + ld_local(sdata, lid() + 2i64),
                    )],
                )]),
                Block::new(vec![if_(
                    lid().lt(1i64),
                    vec![st_local(
                        sdata,
                        lid(),
                        ld_local(sdata, lid()) + ld_local(sdata, lid() + 1i64),
                    )],
                )]),
                Block::new(vec![if_(
                    lid().eq_(0i64),
                    vec![st(y, g, ld_local(sdata, 0i64))],
                )]),
            ],
        }),
        locals: Vec::new(),
        region_reduction: None,
        reduction: None,
        launch_hint: None,
    };
    let program = b.finish(vec![HostStmt::Launch(k)]);
    Case {
        seed: 0,
        index: 3,
        program,
        params: vec![("n".to_string(), 4.0)],
        inputs: vec![
            (
                "x".to_string(),
                Buffer::F32((0..16).map(|i| (i % 5 + 1) as f32).collect()),
            ),
            ("y".to_string(), Buffer::F32(vec![1.0; 4])),
        ],
    }
}

/// `update host(y)` / `update device(y)` around an affine kernel
/// inside a data region — the Table VII transfer pattern, asserted to
/// be value-neutral on every leg.
fn saxpy_update_sandwich() -> Case {
    let mut b = ProgramBuilder::new("saxpy_update_sandwich");
    let n = b.iparam("n");
    let x = b.array("x", Scalar::F32, n, Intent::In);
    let y = b.array("y", Scalar::F32, n, Intent::InOut);
    let i1 = b.var("i1");
    let i2 = b.var("i2");
    let k1 = Kernel::simple(
        "ax1",
        vec![ParallelLoop::new(i1, Expr::iconst(0), Expr::param(n))],
        Block::new(vec![st(y, i1, E::from(2.0) * ld(x, i1) + ld(y, i1))]),
    );
    let k2 = Kernel::simple(
        "ax2",
        vec![ParallelLoop::new(i2, Expr::iconst(0), Expr::param(n))],
        Block::new(vec![st(y, i2, ld(y, i2) + E::from(0.5))]),
    );
    let program = b.finish(vec![HostStmt::DataRegion {
        arrays: vec![x, y],
        body: vec![
            HostStmt::Launch(k1),
            HostStmt::Update {
                array: y,
                dir: Dir::ToHost,
            },
            HostStmt::Update {
                array: y,
                dir: Dir::ToDevice,
            },
            HostStmt::Launch(k2),
        ],
    }]);
    Case {
        seed: 0,
        index: 4,
        program,
        params: vec![("n".to_string(), 5.0)],
        inputs: base_inputs(5),
    }
}

/// BFS-style convergence: launch work, then a countdown kernel that
/// decrements the host-checked flag. Terminates after `flag` initial
/// iterations on every leg — including the CAPS per-iteration
/// retransfer schedule.
fn whileflag_countdown() -> Case {
    let mut b = ProgramBuilder::new("whileflag_countdown");
    let n = b.iparam("n");
    let x = b.array("x", Scalar::F32, n, Intent::In);
    let y = b.array("y", Scalar::F32, n, Intent::InOut);
    let flag = b.array("flag", Scalar::I32, 1i64, Intent::InOut);
    let i = b.var("i");
    let c = b.var("c");
    let work = Kernel::simple(
        "work",
        vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
        Block::new(vec![st(y, i, ld(y, i) + ld(x, i))]),
    );
    let countdown = Kernel::simple(
        "countdown",
        vec![ParallelLoop::new(c, Expr::iconst(0), Expr::iconst(1))],
        Block::new(vec![st(flag, 0i64, (ld(flag, 0i64) - 1i64).max(0i64))]),
    );
    let program = b.finish(vec![HostStmt::WhileFlag {
        flag,
        max_iters: 5,
        body: vec![HostStmt::Launch(work), HostStmt::Launch(countdown)],
    }]);
    let mut inputs = base_inputs(5);
    inputs.push(("flag".to_string(), Buffer::I32(vec![2])));
    Case {
        seed: 0,
        index: 5,
        program,
        params: vec![("n".to_string(), 5.0)],
        inputs,
    }
}

/// `-0.0` flowing through the float-zero identities. `simplify` used
/// to fold `x + 0.0 → x`, which keeps `-0.0` where IEEE-754 produces
/// `+0.0` — a bit-level divergence on the `transform/simplify` leg.
/// Only `x - (+0.0)` may fold.
fn neg_zero_identity() -> Case {
    let mut b = ProgramBuilder::new("neg_zero_identity");
    let n = b.iparam("n");
    let x = b.array("x", Scalar::F32, n, Intent::In);
    let y = b.array("y", Scalar::F32, n, Intent::InOut);
    let i = b.var("i");
    let t = b.var("t");
    let k = Kernel::simple(
        "wash",
        vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
        Block::new(vec![
            // `+ 0.0` must survive simplification: it maps -0.0 → +0.0.
            let_(t, Scalar::F32, ld(x, i) + E::from(0.0)),
            // `- 0.0` is the exact identity and is free to fold.
            st(y, i, E::from(t) - E::from(0.0)),
        ]),
    );
    let program = b.finish(vec![HostStmt::Launch(k)]);
    Case {
        seed: 0,
        index: 6,
        program,
        params: vec![("n".to_string(), 6.0)],
        inputs: vec![
            (
                "x".to_string(),
                Buffer::F32(vec![-0.0, 0.0, 1.5, -2.0, -0.0, 3.25]),
            ),
            ("y".to_string(), Buffer::F32(vec![1.0; 6])),
        ],
    }
}

/// An `I32`-accumulator reduction through the grouped rewrite. The
/// shared `sdata` buffer used to be hardcoded to `F32`, so partial
/// sums above 2^24 lost their low bits on the round trip through
/// local memory; values of 2^24 + 1 pin the divergence.
fn grouped_i32_reduction() -> Case {
    let mut b = ProgramBuilder::new("grouped_i32_reduction");
    let n = b.iparam("n");
    let x = b.array("x", Scalar::I32, n, Intent::In);
    let y = b.array("y", Scalar::I32, n, Intent::InOut);
    let i = b.var("i");
    let acc = b.var("acc");
    let kv = b.var("kv");
    let mut k = Kernel::simple(
        "isum",
        vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
        Block::new(vec![
            let_(acc, Scalar::I32, 0i64),
            for_(
                kv,
                0i64,
                E::from(n),
                vec![paccport_ir::assign(acc, E::from(acc) + ld(x, kv))],
            ),
            st(y, i, acc),
        ]),
    );
    k.reduction = Some(Reduction {
        op: ReduceOp::Add,
        acc,
    });
    let program = b.finish(vec![HostStmt::Launch(k)]);
    Case {
        seed: 0,
        index: 7,
        program,
        params: vec![("n".to_string(), 6.0)],
        inputs: vec![
            ("x".to_string(), Buffer::I32(vec![(1 << 24) + 1; 6])),
            ("y".to_string(), Buffer::I32(vec![0; 6])),
        ],
    }
}

/// `t = t + (z[i*n + kv] + t)`: the accumulation prefix matches, but
/// the term reads `t`, so the loop doubles the running value instead of
/// summing. `reduction_to_grouped` used to rewrite it as a tree sum
/// (the `transform/reduction-to-grouped(8)` leg produced 46.0 where
/// the oracle gives 96.0); shrunk from random program 214 of seed 5.
fn self_referential_sum() -> Case {
    let mut b = ProgramBuilder::new("self_referential_sum");
    let n = b.iparam("n");
    let y = b.array("y", Scalar::F32, n, Intent::InOut);
    let z = b.array("z", Scalar::F32, E::from(n) * E::from(n), Intent::In);
    let i = b.var("i");
    let t = b.var("t");
    let kv = b.var("kv");
    let k = Kernel::simple(
        "doubling",
        vec![ParallelLoop::new(i, Expr::iconst(0), Expr::iconst(1))],
        Block::new(vec![
            let_(t, Scalar::F32, 2.0f64),
            for_(
                kv,
                0i64,
                E::from(n),
                vec![paccport_ir::assign(
                    t,
                    E::from(t) + (ld(z, E::from(i) * E::from(n) + E::from(kv)) + E::from(t)),
                )],
            ),
            st(y, 0i64, t),
        ]),
    );
    let program = b.finish(vec![HostStmt::Launch(k)]);
    Case {
        seed: 0,
        index: 8,
        program,
        params: vec![("n".to_string(), 4.0)],
        inputs: vec![
            ("y".to_string(), Buffer::F32(vec![2.0, 1.0, 2.0, 2.0])),
            (
                "z".to_string(),
                Buffer::F32(vec![
                    4.0, 3.0, 1.0, 2.0, 7.0, 4.0, 1.0, 7.0, 8.0, 4.0, 7.0, 6.0, 1.0, 6.0, 5.0, 7.0,
                ]),
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{assert_conforms, check_case, Outcome};

    #[test]
    fn every_corpus_case_validates_and_conforms() {
        for (name, case) in corpus() {
            paccport_ir::validate(&case.program)
                .unwrap_or_else(|e| panic!("corpus case {name} invalid: {e:?}"));
            assert_conforms(&case);
        }
    }

    /// The CAPS MIC reduction bug must be *expected* divergence — a
    /// silent pass there means the quirk model regressed.
    #[test]
    fn caps_mic_reduction_diverges_as_documented() {
        let legs = check_case(&caps_mic_reduction());
        let mic = legs
            .iter()
            .find(|l| l.label == "caps/5110P")
            .expect("caps/5110P leg must run");
        assert_eq!(
            mic.outcome,
            Outcome::ExpectedDivergence,
            "got {:?}",
            mic.outcome
        );
        let gpu = legs.iter().find(|l| l.label == "caps/K40").unwrap();
        assert_eq!(gpu.outcome, Outcome::Match, "got {:?}", gpu.outcome);
    }

    /// The `-0.0` case must stay an exact match on the `simplify`
    /// transform leg — the pre-fix fold turned it into a bit-level
    /// mismatch there.
    #[test]
    fn neg_zero_identity_survives_simplify_leg() {
        let legs = check_case(&neg_zero_identity());
        let leg = legs
            .iter()
            .find(|l| l.label == "transform/simplify")
            .expect("transform/simplify leg must run");
        assert_eq!(leg.outcome, Outcome::Match, "got {:?}", leg.outcome);
    }

    /// The I32 reduction must match bit-exactly on the GPU leg, where
    /// the grouped rewrite applies — the pre-fix F32 `sdata` lost the
    /// low bits of every 2^24 + 1 partial.
    #[test]
    fn grouped_i32_reduction_is_exact_on_gpu_legs() {
        let legs = check_case(&grouped_i32_reduction());
        let gpu = legs
            .iter()
            .find(|l| l.label == "caps/K40")
            .expect("caps/K40 leg must run");
        assert_eq!(gpu.outcome, Outcome::Match, "got {:?}", gpu.outcome);
    }

    /// The grouped rewrite must decline `t = t + (e + t)`, so its leg
    /// is skipped; it used to apply and diverge (96.0 vs 46.0).
    #[test]
    fn self_referential_sum_is_not_rewritten_as_a_reduction() {
        let legs = check_case(&self_referential_sum());
        let leg = legs
            .iter()
            .find(|l| l.label == "transform/reduction-to-grouped(8)")
            .expect("reduction-to-grouped leg must be reported");
        assert_eq!(
            leg.outcome,
            Outcome::SkippedTransform,
            "got {:?}",
            leg.outcome
        );
    }

    #[test]
    fn grouped_tree_sum_diverges_only_on_caps_mic() {
        let legs = check_case(&grouped_tree_sum());
        for leg in &legs {
            match leg.label.as_str() {
                "caps/5110P" => assert_eq!(
                    leg.outcome,
                    Outcome::ExpectedDivergence,
                    "leg {}: {:?}",
                    leg.label,
                    leg.outcome
                ),
                "opencl/5110P" | "opencl/K40" | "opencl/FirePro" => assert_eq!(
                    leg.outcome,
                    Outcome::Match,
                    "leg {}: {:?}",
                    leg.label,
                    leg.outcome
                ),
                _ => {}
            }
        }
    }
}

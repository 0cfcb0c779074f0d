//! Bit-level pins of timing-mode runs.
//!
//! The report prints modeled seconds to three decimals, so a change
//! to the dynamic-cost or timing model can move the last bits of a
//! result without touching stdout. These tests pin the full `f64` bit
//! patterns of `elapsed`, `kernel_time`, `transfer_time_s` and
//! `host_time`, every kernel's launch count and device time, and the
//! transfer ledger, for timing-mode runs of each benchmark and of a
//! triangular nest whose cost tree reads a sampled parallel variable.
//! Any refactor of the per-launch path must leave every pin as is.

use paccport::compilers::{compile, CompileOptions, CompilerId};
use paccport::core::experiments::{bp_variants, ge_variants, lud_variants};
use paccport::devsim::{run, RunConfig, RunResult};
use paccport::ir::{
    assign, for_, ld, let_, st, Block, Expr, HostStmt, Intent, Kernel, ParallelLoop,
    ProgramBuilder, Scalar, E,
};
use paccport::kernels::{backprop, bfs, gaussian, lud, VariantCfg};

/// Canonical rendering of everything a timing run produces.
fn digest(r: &RunResult) -> String {
    let stats: Vec<String> = r
        .kernel_stats
        .iter()
        .map(|s| format!("{}:{}:{:016x}", s.name, s.launches, s.device_time.to_bits()))
        .collect();
    let t = &r.transfers;
    format!(
        "e={:016x} k={:016x} t={:016x} h={:016x} [{}] h2d={}/{} d2h={}/{}",
        r.elapsed.to_bits(),
        r.kernel_time.to_bits(),
        r.transfer_time_s.to_bits(),
        r.host_time.to_bits(),
        stats.join(" "),
        t.h2d_count,
        t.h2d_bytes,
        t.d2h_count,
        t.d2h_bytes,
    )
}

fn run_digest(
    compiler: CompilerId,
    opts: &CompileOptions,
    p: &paccport::ir::Program,
    cfg: &RunConfig,
) -> String {
    let c = compile(compiler, p, opts).expect("compiles");
    digest(&run(&c, cfg).expect("runs"))
}

/// Compare every case against its pin, reporting all mismatches at
/// once so a drift shows its full extent.
fn check(cases: Vec<(String, String)>, pins: &[(&str, &str)]) {
    assert_eq!(
        cases.len(),
        pins.len(),
        "case list and pins differ in length"
    );
    let mut bad = Vec::new();
    for ((name, got), (pin_name, want)) in cases.iter().zip(pins) {
        assert_eq!(name, pin_name, "case order changed");
        if got != want {
            bad.push(format!("{name}\n  want {want}\n  got  {got}"));
        }
    }
    assert!(bad.is_empty(), "timing bits moved:\n{}", bad.join("\n"));
}

fn series() -> [(&'static str, CompilerId, CompileOptions); 3] {
    [
        ("caps-gpu", CompilerId::Caps, CompileOptions::gpu()),
        ("caps-mic", CompilerId::Caps, CompileOptions::mic()),
        ("pgi-gpu", CompilerId::Pgi, CompileOptions::gpu()),
    ]
}

/// Every LUD and GE variant at n = 512 on CAPS GPU/MIC and PGI GPU.
fn matrix_cases(
    variants: Vec<(String, VariantCfg)>,
    program: fn(&VariantCfg) -> paccport::ir::Program,
    cfg: &RunConfig,
) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (variant, vc) in variants {
        let p = program(&vc);
        for (s, compiler, opts) in series() {
            out.push((
                format!("{s}/{variant}"),
                run_digest(compiler, &opts, &p, cfg),
            ));
        }
    }
    out
}

#[test]
fn lud_timing_bits_are_pinned() {
    let cfg = RunConfig::timing(vec![("n".into(), 512.0)], 1);
    check(matrix_cases(lud_variants(), lud::program, &cfg), LUD_PINS);
}

#[test]
fn ge_timing_bits_are_pinned() {
    let cfg = RunConfig::timing(vec![("n".into(), 512.0)], 1);
    check(
        matrix_cases(ge_variants(), gaussian::program, &cfg),
        GE_PINS,
    );
}

/// BP, BFS and Hydro at quick scale (the `Scale::quick()` sizes).
#[test]
fn bp_bfs_hydro_timing_bits_are_pinned() {
    let bp_cfg = RunConfig::timing(vec![("n_in".into(), 200_000.0), ("n_hid".into(), 16.0)], 1);
    let mut cases = matrix_cases(bp_variants(), backprop::program, &bp_cfg);
    let bfs_cfg = RunConfig::timing(
        vec![
            ("n".into(), 500_000.0),
            ("nedges".into(), 2_500_000.0),
            ("source".into(), 0.0),
        ],
        10,
    )
    .with_hints(bfs::hints(5.0, 0.1));
    cases.extend(matrix_cases(
        vec![
            ("Base".into(), VariantCfg::baseline()),
            ("Indep".into(), VariantCfg::independent()),
        ],
        bfs::program,
        &bfs_cfg,
    ));
    let hydro_cfg = paccport::hydro::timing_run_config(128, 128, 2);
    for (variant, hv) in [
        ("Base", paccport::hydro::HydroVariant::Baseline),
        ("Indep+Dist", paccport::hydro::HydroVariant::Optimized),
    ] {
        let p = paccport::hydro::program(hv);
        for (s, opts) in [
            ("hydro-gpu", CompileOptions::gpu()),
            ("hydro-mic", CompileOptions::mic()),
        ] {
            cases.push((
                format!("{s}/{variant}"),
                run_digest(CompilerId::Caps, &opts, &p, &hydro_cfg),
            ));
        }
    }
    check(cases, BP_BFS_HYDRO_PINS);
}

/// `out[i] = sum_{k in i..n} x[k]` (rank 1) and the rank-2 nest
/// `out[i*n + j] = sum_{k < j} x[k]` for `j <= i`: the cost trees read
/// the distributed parallel variables, so every sample point yields a
/// different trip count and none may be merged.
#[test]
fn triangular_nest_timing_bits_are_pinned() {
    let mut b = ProgramBuilder::new("tri");
    let n = b.iparam("n");
    let x = b.array("x", Scalar::F32, n, Intent::In);
    let out = b.array("out", Scalar::F32, E::from(n) * E::from(n), Intent::Out);
    let i = b.var("i");
    let j = b.var("j");
    let kv = b.var("k");
    let s = b.var("s");
    let mut li = ParallelLoop::new(i, Expr::iconst(0), Expr::param(n));
    li.clauses.independent = true;
    let suffix = Kernel::simple(
        "suffix",
        vec![li.clone()],
        Block::new(vec![
            let_(s, Scalar::F32, 0.0),
            for_(kv, i, E::from(n), vec![assign(s, E::from(s) + ld(x, kv))]),
            st(out, i, E::from(s)),
        ]),
    );
    let mut lj = ParallelLoop::new(j, Expr::iconst(0), (E::from(i) + 1i64).0);
    lj.clauses.independent = true;
    let lower = Kernel::simple(
        "lower",
        vec![li, lj],
        Block::new(vec![
            let_(s, Scalar::F32, 0.0),
            for_(kv, 0i64, j, vec![assign(s, E::from(s) + ld(x, kv))]),
            st(out, E::from(i) * E::from(n) + E::from(j), E::from(s)),
        ]),
    );
    let p = b.finish(vec![HostStmt::Launch(suffix), HostStmt::Launch(lower)]);
    let cfg = RunConfig::timing(vec![("n".into(), 1000.0)], 1);
    let cases = series()
        .into_iter()
        .map(|(s, compiler, opts)| (s.to_string(), run_digest(compiler, &opts, &p, &cfg)))
        .collect();
    check(cases, TRIANGULAR_PINS);
}

#[rustfmt::skip]
const LUD_PINS: &[(&str, &str)] = &[
    ("caps-gpu/Base", "e=400cce81272c3912 k=400ccdbd51737eeb t=3f387ab71744d70b h=0000000000000000 [lud_row:512:3ffcdbbe0157eed6 lud_col:512:3ffcbfbca18f0f15] h2d=1/1048576 d2h=1/1048576"),
    ("caps-mic/Base", "e=3ff236e5d8271715 k=3ff2350418be67d2 t=3f3e1bf68af42ad9 h=0000000000000000 [lud_row:512:3fe23dc486ad2dd1 lud_col:512:3fe22c43aacfa1eb] h2d=1/1048576 d2h=1/1048576"),
    ("pgi-gpu/Base", "e=3fa467ac78b521ab k=3fa436b70a8697fd t=3f387ab71744d70b h=0000000000000000 [lud_row:512:3f943b51eb98caa9 lud_col:512:3f94321c29746549] h2d=1/1048576 d2h=1/1048576"),
    ("caps-gpu/ThreadDist", "e=3f85541952d16497 k=3f8490439a173ddf t=3f387ab71744d70b h=0000000000000000 [lud_row:512:3f748f77ff9cc5c5 lud_col:512:3f74910f3491b5ea] h2d=1/1048576 d2h=1/1048576"),
    ("caps-mic/ThreadDist", "e=3f953aaef05823d8 k=3f94c23f162c532d t=3f3e1bf68af42ad9 h=0000000000000000 [lud_row:512:3f84beda293a196e lud_col:512:3f84c5a4031e8cf8] h2d=1/1048576 d2h=1/1048576"),
    ("pgi-gpu/ThreadDist", "e=3f85b0e95e19ad6a k=3f84ed13a55f86b2 t=3f387ab71744d70b h=0000000000000000 [lud_row:512:3f74eaaa834bcf63 lud_col:512:3f74ef7cc7733e0a] h2d=1/1048576 d2h=1/1048576"),
    ("caps-gpu/Unroll", "e=3f854c82ca6b8ddf k=3f8488ad11b16727 t=3f387ab71744d70b h=0000000000000000 [lud_row:512:3f74898d63dabe54 lud_col:512:3f7487ccbf880fe8] h2d=1/1048576 d2h=1/1048576"),
    ("caps-mic/Unroll", "e=3f94a874b83fa041 k=3f943004de13cf96 t=3f3e1bf68af42ad9 h=0000000000000000 [lud_row:512:3f842c2ec06b22f1 lud_col:512:3f8433dafbbc7c4d] h2d=1/1048576 d2h=1/1048576"),
    ("pgi-gpu/Unroll", "e=3f85b0e95e19ad6a k=3f84ed13a55f86b2 t=3f387ab71744d70b h=0000000000000000 [lud_row:512:3f74eaaa834bcf63 lud_col:512:3f74ef7cc7733e0a] h2d=1/1048576 d2h=1/1048576"),
    ("caps-gpu/Tile", "e=3f85541952d16497 k=3f8490439a173ddf t=3f387ab71744d70b h=0000000000000000 [lud_row:512:3f748f77ff9cc5c5 lud_col:512:3f74910f3491b5ea] h2d=1/1048576 d2h=1/1048576"),
    ("caps-mic/Tile", "e=3f953aaef05823d8 k=3f94c23f162c532d t=3f3e1bf68af42ad9 h=0000000000000000 [lud_row:512:3f84beda293a196e lud_col:512:3f84c5a4031e8cf8] h2d=1/1048576 d2h=1/1048576"),
    ("pgi-gpu/Tile", "e=3f85b0e95e19ad6a k=3f84ed13a55f86b2 t=3f387ab71744d70b h=0000000000000000 [lud_row:512:3f74eaaa834bcf63 lud_col:512:3f74ef7cc7733e0a] h2d=1/1048576 d2h=1/1048576"),
];
#[rustfmt::skip]
const GE_PINS: &[(&str, &str)] = &[
    ("caps-gpu/Base", "e=40137b9745567656 k=40137b2ee20d1d3e t=3f3a18d25645ff35 h=0000000000000000 [fan1:511:3f8ee90635c682d6 fan2a:511:40135aaa58e221f8 fan2b:511:3f911006101803b5] h2d=2/1050624 d2h=2/1050624"),
    ("caps-mic/Base", "e=3ff8aa847db81893 k=3ff8a877f0fd58bb t=3f406465d5fec1eb h=0000000000000000 [fan1:511:3f86bdb5ada16367 fan2a:511:3ff84b7eb6945139 fan2b:511:3f87bee786e25cd7] h2d=2/1050624 d2h=2/1050624"),
    ("pgi-gpu/Base", "e=40186674ed236a32 k=4018660c89da111a t=3f3a18d25645ff35 h=0000000000000000 [fan1:511:3f712dc36f9b6aef fan2a:511:40185d6c913c97a1 fan2b:511:3f71521f064a76b6] h2d=2/1050624 d2h=2/1050624"),
    ("caps-gpu/Indep", "e=3f91fadf3001bd9f k=3f91927be6a8a5a2 t=3f3a18d25645ff35 h=0000000000000000 [fan1:511:3f712da83fc7ca58 fan2a:511:3f81e51998498b0c fan2b:511:3f7152142a47b632] h2d=2/1050624 d2h=2/1050624"),
    ("caps-mic/Indep", "e=3fa40d5b4fe1c540 k=3fa3cbc9b889ca38 t=3f406465d5fec1eb h=0000000000000000 [fan1:511:3f8426d9c1e119c4 fan2a:511:3f934112a293b0c0 fan2b:511:3f848627db1ead7a] h2d=2/1050624 d2h=2/1050624"),
    ("pgi-gpu/Indep", "e=3fab6a9134814a2e k=3fab365f8fd4be30 t=3f3a18d25645ff35 h=0000000000000000 [fan1:511:3f712dc36f9b6aef fan2a:511:3fa6e66341180200 fan2b:511:3f71521f064a76b6] h2d=2/1050624 d2h=2/1050624"),
    ("caps-gpu/Reorg", "e=3f9007bb3796be63 k=3f8f3eafdc7b4ccc t=3f3a18d25645ff35 h=0000000000000000 [fan1:511:3f712da83fc7ca58 fan2:511:3f86a7dbbc97679b] h2d=2/1050624 d2h=2/1050624"),
    ("caps-mic/Reorg", "e=3fa0b246fad0f564 k=3fa070b56378fa5c t=3f406465d5fec1eb h=0000000000000000 [fan1:511:3f8426d9c1e119c4 fan2:511:3f96cdfde60167d7] h2d=2/1050624 d2h=2/1050624"),
    ("pgi-gpu/Reorg", "e=3fb1d3c91a3a1a8d k=3fb1b9b047e3d48e t=3f3a18d25645ff35 h=0000000000000000 [fan1:511:3f712dc36f9b6aef fan2:511:3fb0a6d410ea1ddf] h2d=2/1050624 d2h=2/1050624"),
    ("caps-gpu/Unroll", "e=3f9007bb3796be63 k=3f8f3eafdc7b4ccc t=3f3a18d25645ff35 h=0000000000000000 [fan1:511:3f712da83fc7ca58 fan2:511:3f86a7dbbc97679b] h2d=2/1050624 d2h=2/1050624"),
    ("caps-mic/Unroll", "e=3fa0b246fad0f564 k=3fa070b56378fa5c t=3f406465d5fec1eb h=0000000000000000 [fan1:511:3f8426d9c1e119c4 fan2:511:3f96cdfde60167d7] h2d=2/1050624 d2h=2/1050624"),
    ("pgi-gpu/Unroll", "e=3fb1d3c91a3a1a8d k=3fb1b9b047e3d48e t=3f3a18d25645ff35 h=0000000000000000 [fan1:511:3f712dc36f9b6aef fan2:511:3fb0a6d410ea1ddf] h2d=2/1050624 d2h=2/1050624"),
    ("caps-gpu/Tile", "e=3f90030adba14e68 k=3f8f354f24906cd7 t=3f3a18d25645ff35 h=0000000000000000 [fan1:511:3f711ae6cff20a06 fan2:511:3f86a7dbbc97679b] h2d=2/1050624 d2h=2/1050624"),
    ("caps-mic/Tile", "e=3fa162d89a3cd28e k=3fa1214702e4d786 t=3f406465d5fec1eb h=0000000000000000 [fan1:511:3f86e9203f908ea5 fan2:511:3f96cdfde60167d7] h2d=2/1050624 d2h=2/1050624"),
    ("pgi-gpu/Tile", "e=3fb1d3c91a3a1a8d k=3fb1b9b047e3d48e t=3f3a18d25645ff35 h=0000000000000000 [fan1:511:3f712dc36f9b6aef fan2:511:3fb0a6d410ea1ddf] h2d=2/1050624 d2h=2/1050624"),
];
#[rustfmt::skip]
const BP_BFS_HYDRO_PINS: &[(&str, &str)] = &[
    ("caps-gpu/Base", "e=3fec268d8f362a4a k=3febda7f74cca806 t=3f8303869a60910c h=0000000000000000 [layer_forward:1:3fd0627a489b7a45 adjust_weights:1:3fe3a942507eeae4] h2d=4/28000208 d2h=3/27200204"),
    ("caps-mic/Base", "e=3fd220252e9d2843 k=3fd168f8848b9575 t=3f86e595423259b9 h=0000000000000000 [layer_forward:1:3fb47bea91d9b1b8 adjust_weights:1:3fc893fbc02a520e] h2d=4/28000208 d2h=3/27200204"),
    ("pgi-gpu/Base", "e=3f9c737de6313c38 k=3f92f1ba9900f3b2 t=3f8303869a60910c h=0000000000000000 [layer_forward:1:3f72f5eeaa539c53 adjust_weights:1:3f8c687ddcd8193b] h2d=4/28000208 d2h=3/27200204"),
    ("caps-gpu/Indep", "e=3f8d8839be8e89e8 k=3f750966485bf1b9 t=3f8303869a60910c h=0000000000000000 [layer_forward:1:3f72f5eeaa539c53 adjust_weights:1:3f409bbcf042ab32] h2d=4/28000208 d2h=3/27200204"),
    ("caps-mic/Indep", "e=3fb7aa9cf48876b3 k=3fb4cdea4c422b7c t=3f86e595423259b9 h=0000000000000000 [layer_forward:1:3fb47c1956125b4c adjust_weights:1:3f54743d8bf40bf9] h2d=4/28000208 d2h=3/27200204"),
    ("pgi-gpu/Indep", "e=3f9c737de6313c38 k=3f92f1ba9900f3b2 t=3f8303869a60910c h=0000000000000000 [layer_forward:1:3f72f5eeaa539c53 adjust_weights:1:3f8c687ddcd8193b] h2d=4/28000208 d2h=3/27200204"),
    ("caps-gpu/Reduction", "e=3fa8795da2b3590e k=3fa3b87bfc1b34cb t=3f8303869a60910c h=0000000000000000 [layer_forward:1:3fa3760d085a2a1e adjust_weights:1:3f409bbcf042ab32] h2d=4/28000208 d2h=3/27200204"),
    ("caps-mic/Reduction", "e=3f91e264595df9b8 k=3f79be66e113336c t=3f86e595423259b9 h=0000000000000000 [layer_forward:1:3f74a1577e16306e adjust_weights:1:3f54743d8bf40bf9] h2d=4/28000208 d2h=3/27200204"),
    ("pgi-gpu/Reduction", "e=3f9803da6fbdbdcc k=3f8d042e451aea8c t=3f8303869a60910c h=0000000000000000 [layer_forward:1:3f33760d085a2a1e adjust_weights:1:3f8c687ddcd8193b] h2d=4/28000208 d2h=3/27200204"),
    ("caps-gpu/Unroll", "e=3fa8795da2b3590e k=3fa3b87bfc1b34cb t=3f8303869a60910c h=0000000000000000 [layer_forward:1:3fa3760d085a2a1e adjust_weights:1:3f409bbcf042ab32] h2d=4/28000208 d2h=3/27200204"),
    ("caps-mic/Unroll", "e=3f9137af0e8df1cd k=3f771391b5d313c2 t=3f86e595423259b9 h=0000000000000000 [layer_forward:1:3f71f68252d610c4 adjust_weights:1:3f54743d8bf40bf9] h2d=4/28000208 d2h=3/27200204"),
    ("pgi-gpu/Unroll", "e=3f9803da6fbdbdcc k=3f8d042e451aea8c t=3f8303869a60910c h=0000000000000000 [layer_forward:1:3f33760d085a2a1e adjust_weights:1:3f8c687ddcd8193b] h2d=4/28000208 d2h=3/27200204"),
    ("caps-gpu/Base", "e=3fe8b37d965e816f k=3fe87c43f56fa5a0 t=3f7b9cd0776de758 h=0000000000000000 [bfs_init:1:3ee0f4107ff75380 bfs_kernel1:10:3fe0193c7c8810db bfs_kernel2:10:3fd0c5ed09ae299d] h2d=13/16000040 d2h=21/22000040"),
    ("caps-mic/Base", "e=3fcfb340c437ca41 k=3fcea3eef540b453 t=3f80f51cef715ee3 h=0000000000000000 [bfs_init:1:3eef832813198d45 bfs_kernel1:10:3fc423a42f1ed17c bfs_kernel2:10:3fb4ff9973032cdb] h2d=13/16000040 d2h=21/22000040"),
    ("pgi-gpu/Base", "e=3fc2fe292a09ad97 k=0000000000000000 t=3f68f81e8a2ec28c h=3fc29a48afe0f28d [bfs_init:1:3e49c511dc3a41df bfs_kernel1:10:3fb8d4fe2cfa6d52 bfs_kernel2:10:3fa8bf25fe7aa821] h2d=3/16000000 d2h=1/2000000"),
    ("caps-gpu/Indep", "e=3f7eab33f64fc076 k=3f48731bf70ec8f0 t=3f7b9cd0776de758 h=0000000000000000 [bfs_init:1:3ee0e53328a9f5e6 bfs_kernel1:10:3f3f359a12db2fdb bfs_kernel2:10:3f31297441fd1254] h2d=13/16000040 d2h=21/22000040"),
    ("caps-mic/Indep", "e=3f853f6262ee034e k=3f612915cdf291ad t=3f80f51cef715ee3 h=0000000000000000 [bfs_init:1:3ef2172ec5bb35a1 bfs_kernel1:10:3f54717d70c40d61 bfs_kernel2:10:3f4b30a2e0145247] h2d=13/16000040 d2h=21/22000040"),
    ("pgi-gpu/Indep", "e=3fc2fe292a09ad97 k=0000000000000000 t=3f68f81e8a2ec28c h=3fc29a48afe0f28d [bfs_init:1:3e49c511dc3a41df bfs_kernel1:10:3fb8d4fe2cfa6d52 bfs_kernel2:10:3fa8bf25fe7aa821] h2d=3/16000000 d2h=1/2000000"),
    ("hydro-gpu/Base", "e=3fd166f91326ce4b k=3fd160fb178de632 t=3f2d7b65fcdf0e44 h=3f227476ca61b882 [courant:2:3f83e8e8eac3357d boundary_x:2:3f358a337db971da constoprim_x:2:3f865027cf6ba75d eos_x:2:3f7a5b06472818df slope_x:2:3f9563f0d1750e5b trace_x:2:3f95f3ec3a3f2fda qleftright_x:2:3f8f4af83aa88c40 riemann_x:2:3f82bcf77de1936a cmpflx_x:2:3f9ff793ed29b0f5 update_x:2:3f8d0965af5c4e8b boundary_y:2:3f37c12306a67383 constoprim_y:2:3f865027cf6ba75d eos_y:2:3f7a5b06472818df slope_y:2:3f9683d674fd6933 trace_y:2:3f95f3ec3a3f2fda qleftright_y:2:3f9034537753fd0a riemann_y:2:3f82bcf77de1936a cmpflx_y:2:3f9ff793ed29b0f5 update_y:2:3f8e1c466ddebbf4] h2d=4/278784 d2h=7/278796"),
    ("hydro-mic/Base", "e=3fb5f74f30ae8d61 k=3fb5d85b0ae8914f t=3f35b9ea60cb35b7 h=3f227476ca61b882 [courant:2:3f691790eb4a3b63 boundary_x:2:3f20bd3c8bf76f8e constoprim_x:2:3f6c189f891cc9ba eos_x:2:3f60ad51b24f4812 slope_x:2:3f7ad723e8bd6e35 trace_x:2:3f7b8b1e2bba1814 qleftright_x:2:3f73a912079473ea riemann_x:2:3f67a0a3233030ca cmpflx_x:2:3f8407d7e5af9cbc update_x:2:3f7240167084cd59 boundary_y:2:3f221f92418b9098 constoprim_y:2:3f6c189f891cc9ba eos_y:2:3f60ad51b24f4812 slope_y:2:3f7c3f02f527dfc3 trace_y:2:3f7b8b1e2bba1814 qleftright_y:2:3f745b9f38141890 riemann_y:2:3f67a0a3233030ca cmpflx_y:2:3f8407d7e5af9cbc update_y:2:3f72ebe2e79651bb] h2d=4/278784 d2h=7/278796"),
    ("hydro-gpu/Indep+Dist", "e=3f4c31fd22f84630 k=3f403605f128147f t=3f2d7b65fcdf0e44 h=3f227476ca61b882 [courant:2:3ef50c7428edc6ac boundary_x:2:3ef3f9aa0a0a1473 constoprim_x:2:3ef82cf834581869 eos_x:2:3ef566b7fcfb4856 slope_x:2:3eff5993ea4aae94 trace_x:2:3f035171078a878b qleftright_x:2:3eff3ce17b72e43c riemann_x:2:3ef71a8df0689979 cmpflx_x:2:3efc86c5a26f75fa update_x:2:3efe721fbb023df2 boundary_y:2:3ef3f9aa0a0a1473 constoprim_y:2:3ef82cf834581869 eos_y:2:3ef566b7fcfb4856 slope_y:2:3eff5993ea4aae94 trace_y:2:3f035171078a878b qleftright_y:2:3eff3ce17b72e43c riemann_y:2:3ef71a8df0689979 cmpflx_y:2:3efc86c5a26f75fa update_y:2:3efe721fbb023df2] h2d=4/278784 d2h=7/278796"),
    ("hydro-mic/Indep+Dist", "e=3f5f2f521f7eedbf k=3f577248adffe941 t=3f35b9ea60cb35b7 h=3f227476ca61b882 [courant:2:3f106bb301749f39 boundary_x:2:3f162c1155e8bfc8 constoprim_x:2:3f102c59358c9002 eos_x:2:3f0a933a6b1c13ee slope_x:2:3f154e9bc46c2b21 trace_x:2:3f16ebffc2ee51ad qleftright_x:2:3f13ddc734cc2953 riemann_x:2:3f0ea031c1cc9c2e cmpflx_x:2:3f1b46ad637af99b update_x:2:3f13c6b154cc3522 boundary_y:2:3f178e670b7ce0d1 constoprim_y:2:3f102c59358c9002 eos_y:2:3f0a933a6b1c13ee slope_y:2:3f15da31e52a66b1 trace_y:2:3f16ebffc2ee51ad qleftright_y:2:3f142308d4cc05e4 riemann_y:2:3f0ea031c1cc9c2e cmpflx_y:2:3f1b46ad637af99b update_y:2:3f141c979054f753] h2d=4/278784 d2h=7/278796"),
];
#[rustfmt::skip]
const TRIANGULAR_PINS: &[(&str, &str)] = &[
    ("caps-gpu", "e=3f61635ffc11b248 k=3f100e427f52b083 t=3f60e2ede8171cc4 h=0000000000000000 [suffix:1:3f0beac71677e5a2 lower:1:3ee0c6f7a0b5ed8d] h2d=3/4008000 d2h=2/8000000"),
    ("caps-mic", "e=3f6bcf3f51320519 k=3f4d440c2cc26421 t=3f647e3c46016c11 h=0000000000000000 [suffix:1:3f4cc637eb8d0fab lower:1:3eef75104d551d69] h2d=3/4008000 d2h=2/8000000"),
    ("pgi-gpu", "e=3f957f4d9b2a0964 k=3f9362efde2725cc t=3f60e2ede8171cc4 h=0000000000000000 [suffix:1:3f0beac71677e5a2 lower:1:3f9354fa7a9be9d9] h2d=3/4008000 d2h=2/8000000"),
];

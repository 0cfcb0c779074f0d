//! The traced run: each layer's public functions called in-process,
//! under the benchmark's own spans, plus one HTTP round trip per
//! `serve` route. No span is added inside any crate.
//!
//! The in-process layers run three times: with the program's metrics
//! registry on, whose counters give the counts; under the benchmark's
//! spans, which give the layer times; and with neither. The registry
//! costs about as much as the simulation it counts, so no time is
//! read from the counting pass. `trace.overhead_s` is the spans pass
//! minus the plain pass.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use paccport_compilers::ArtifactCache;
use paccport_core::engine::Engine;
use paccport_core::experiments as exp;
use paccport_core::report;
use paccport_core::serve::run_cell;
use paccport_core::soundness::{check_cell, SoundnessReport};
use paccport_core::study::Scale;
use paccport_server::http;
use paccport_trace::metrics;

use crate::pins;
use crate::schedule;
use crate::stats::median;
use crate::workloads::{lockstep, send, Expected, Server};
use crate::{metric, Ctx, Metric, Tally};

/// `GET /healthz` round trips timed.
const HEALTHZ_TRIPS: usize = 50;
/// Measured `serve` passes sent over HTTP.
const HTTP_PASSES: u64 = 2;

/// One recorded span. `parent` indexes the enclosing span.
struct Span {
    name: String,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// Spans kept in memory and written out when the run ends. A tracer
/// that is off records nothing, so the same code gives the untraced
/// wall.
struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn enter(&mut self, name: &str) {
        if self.on {
            self.spans.push(Span {
                name: name.to_string(),
                start: self.epoch.elapsed(),
                end: Duration::ZERO,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    fn exit(&mut self) {
        if self.on {
            let i = self.open.pop().expect("exit matches an enter");
            self.spans[i].end = self.epoch.elapsed();
        }
    }

    /// Call `f` inside a span named `name`.
    fn call<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Per span name: (count, total seconds, self seconds). Self time
    /// is the span minus its children, which on this single thread
    /// never overlap.
    fn layers(&self) -> BTreeMap<&str, (u64, f64, f64)> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let e = out.entry(s.name.as_str()).or_default();
            e.0 += 1;
            e.1 += (s.end - s.start).as_secs_f64();
            e.2 += (s.end - s.start - c).as_secs_f64();
        }
        out
    }

    fn total(&self, name: &str) -> f64 {
        self.layers().get(name).map_or(0.0, |l| l.1)
    }

    fn jsonl(&self) -> String {
        self.spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}\n",
                    s.name,
                    s.start.as_nanos(),
                    s.end.as_nanos(),
                    s.parent.map_or("null".to_string(), |p| p.to_string())
                )
            })
            .collect()
    }
}

/// Sum of every sample of each metric family in a Prometheus text
/// exposition, labels folded together.
fn families(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let head = line.split(" # ").next().unwrap_or(line);
        let name = head.split(['{', ' ']).next().unwrap_or("");
        if let Some(v) = head.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok()) {
            *out.entry(name.to_string()).or_default() += v;
        }
    }
    out
}

/// The counters the program exports, from its own metrics registry.
fn snapshot() -> BTreeMap<String, f64> {
    families(&metrics::render_prometheus())
}

fn delta(after: &BTreeMap<String, f64>, before: &BTreeMap<String, f64>, name: &str) -> f64 {
    after.get(name).unwrap_or(&0.0) - before.get(name).unwrap_or(&0.0)
}

/// What one in-process pass measured; counts are exact.
#[derive(Default)]
struct Pass {
    wall_s: f64,
    launches: f64,
    transfers: f64,
    transfer_bytes: f64,
    compile_total: f64,
    cache_miss: f64,
    cache_hit: f64,
    cells: usize,
    run_cell_ms: Vec<f64>,
}

/// `paper`'s layers: every experiment at Table IV sizes on a 2-worker
/// engine, in `reproduce`'s order, and each result rendered.
fn paper_layers(t: &mut Tracer) {
    let eng = Engine::new(2);
    let scale = Scale::paper();
    let eng = &eng;
    let s = &scale;
    t.call("core::report::render_tab1", report::render_tab1);
    t.call(
        "core::experiments::tab2_dependence_demo",
        exp::tab2_dependence_demo,
    );
    t.call("core::report::render_tab3", report::render_tab3);
    t.call("core::report::render_tab4", report::render_tab4);
    t.call("core::report::render_tab5", report::render_tab5);
    t.call("core::report::render_tab6", || {
        report::render_tab6(s.lud_n as u64)
    });
    t.call("core::experiments::fig1_tiling_shared_ops_on", || {
        exp::fig1_tiling_shared_ops_on(eng)
    });
    t.call(
        "core::experiments::fig8_advanced_config",
        exp::fig8_advanced_config,
    );
    t.call("core::experiments::fig13_reduction_listing_on", || {
        exp::fig13_reduction_listing_on(eng)
    });
    let f = t.call("core::experiments::fig3_lud_on", || {
        exp::fig3_lud_on(eng, s)
    });
    t.call("core::report::render_elapsed", || {
        report::render_elapsed(&f)
    });
    for hm in t.call("core::experiments::fig4_heatmaps_on", || {
        exp::fig4_heatmaps_on(eng, s)
    }) {
        std::hint::black_box(hm.render());
    }
    let f = t.call("core::experiments::fig6_lud_ptx_on", || {
        exp::fig6_lud_ptx_on(eng, s)
    });
    t.call("core::report::render_ptx", || report::render_ptx(&f));
    let f = t.call("core::experiments::fig7_ge_on", || exp::fig7_ge_on(eng, s));
    t.call("core::report::render_elapsed", || {
        report::render_elapsed(&f)
    });
    let f = t.call("core::experiments::fig9_ge_ptx_on", || {
        exp::fig9_ge_ptx_on(eng, s)
    });
    t.call("core::report::render_ptx", || report::render_ptx(&f));
    let f = t.call("core::experiments::fig10_bfs_on", || {
        exp::fig10_bfs_on(eng, s)
    });
    t.call("core::report::render_elapsed", || {
        report::render_elapsed(&f)
    });
    let f = t.call("core::experiments::fig11_bfs_ptx_on", || {
        exp::fig11_bfs_ptx_on(eng, s)
    });
    t.call("core::report::render_ptx", || report::render_ptx(&f));
    let r = t.call("core::experiments::tab7_bfs_on", || {
        exp::tab7_bfs_on(eng, s)
    });
    t.call("core::report::render_tab7", || report::render_tab7(&r));
    let f = t.call("core::experiments::fig12_bp_on", || {
        exp::fig12_bp_on(eng, s)
    });
    t.call("core::report::render_elapsed", || {
        report::render_elapsed(&f)
    });
    let f = t.call("core::experiments::fig14_bp_ptx_on", || {
        exp::fig14_bp_ptx_on(eng, s)
    });
    t.call("core::report::render_ptx", || report::render_ptx(&f));
    let f = t.call("core::experiments::fig15_hydro_on", || {
        exp::fig15_hydro_on(eng, s)
    });
    t.call("core::report::render_elapsed", || {
        report::render_elapsed(&f)
    });
    let r = t.call("core::experiments::fig16_ppr_on", || {
        exp::fig16_ppr_on(eng, s)
    });
    t.call("core::report::render_ppr", || report::render_ppr(&r));
    t.call("core::experiments::ext1_autotune_vs_hand_on", || {
        exp::ext1_autotune_vs_hand_on(eng, s)
    });
    t.call("core::experiments::ext2_data_regions_on", || {
        exp::ext2_data_regions_on(eng, s)
    });
}

/// `check`'s layers: the soundness cells at quick scale on a cold
/// cache.
fn check_layers(t: &mut Tracer, tally: &mut Tally, pass: &mut Pass) {
    let cache = ArtifactCache::new();
    let cells = exp::soundness_cells(&Scale::quick());
    let mut rep = SoundnessReport {
        cells: cells.len(),
        ..Default::default()
    };
    for mut cell in cells {
        // As `check_soundness_on` scopes each cell.
        if cell.cfg.fault_scope.is_none() {
            cell.cfg.fault_scope = Some(cell.label());
        }
        match t.call("core::soundness::check_cell", || check_cell(&cache, &cell)) {
            Ok(cc) => rep.rows.extend(cc.rows),
            Err(e) => rep.failures.push(format!("{}: {e}", cell.label())),
        }
    }
    tally.op(
        if rep.all_consistent() && rep.lost_update_caught() && rep.failures.is_empty() {
            Ok(())
        } else {
            Err("soundness invariant violated in-process".into())
        },
    );
    pass.cells = rep.cells;
}

/// `serve`'s engine layer without HTTP: every cell once to warm the
/// cache, then the first measured pass's requests, each checked
/// against the warm result.
fn serve_layers(
    t: &mut Tracer,
    ctx: &Ctx,
    expected: &Expected,
    tally: &mut Tally,
    pass: &mut Pass,
) {
    let cache = ArtifactCache::new();
    let n = expected.cells.len();
    for r in schedule::warmup(n, ctx.seed) {
        let cell = &expected.cells[r.cell];
        t.call("core::serve::run_cell (cold)", || {
            run_cell(&cache, cell, r.seed)
        })
        .unwrap_or_else(|e| panic!("{}: {e}", cell.label()));
    }
    for r in schedule::pass(n, ctx.seed, 0)
        .into_iter()
        .flatten()
        .flatten()
    {
        let cell = &expected.cells[r.cell];
        let start = Instant::now();
        let got = t.call("core::serve::run_cell", || run_cell(&cache, cell, r.seed));
        pass.run_cell_ms.push(start.elapsed().as_secs_f64() * 1e3);
        tally.op(match got {
            Ok(o) if o == expected.outcomes[r.cell] => Ok(()),
            _ => Err(format!(
                "run_cell {} differs from the warm-up",
                cell.label()
            )),
        });
    }
}

/// How an in-process pass is observed.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Counts,
    Spans,
    Plain,
}

fn in_process(ctx: &Ctx, mode: Mode, expected: &Expected, tally: &mut Tally) -> (Pass, Tracer) {
    metrics::set_metrics_enabled(mode == Mode::Counts);
    let mut t = Tracer::new(mode == Mode::Spans);
    let mut pass = Pass::default();
    let start = Instant::now();
    let m0 = snapshot();
    t.enter("paper");
    paper_layers(&mut t);
    t.exit();
    let m1 = snapshot();
    t.enter("check");
    check_layers(&mut t, tally, &mut pass);
    t.exit();
    t.enter("serve");
    serve_layers(&mut t, ctx, expected, tally, &mut pass);
    t.exit();
    pass.wall_s = start.elapsed().as_secs_f64();
    let m2 = snapshot();
    metrics::set_metrics_enabled(false);
    pass.launches = delta(&m1, &m0, "timing_kernel_launches");
    pass.transfers = delta(&m1, &m0, "timing_transfers");
    pass.transfer_bytes = delta(&m1, &m0, "timing_transfer_bytes");
    pass.compile_total = delta(&m2, &m1, "compile_total");
    pass.cache_miss = delta(&m2, &m1, "cache_miss");
    pass.cache_hit = delta(&m2, &m1, "cache_hit");
    (pass, t)
}

/// The HTTP layer: one round trip per route of a fresh server, the
/// `GET /healthz` latency, and two measured `serve` passes after a
/// warm-up; then the server's own counters.
struct HttpLayer {
    healthz_ms: f64,
    run_p50_ms: f64,
    requests: usize,
    counters: BTreeMap<String, f64>,
}

fn http_layer(t: &mut Tracer, ctx: &Ctx, expected: &Expected, tally: &mut Tally) -> HttpLayer {
    t.enter("server");
    let mut server = Server::start(ctx).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    });
    let addr = server.addr.clone();
    // `route` names the span; `path` is what is requested.
    let mut trip = |t: &mut Tracer, method: &str, route: &str, path: &str, body: &str| {
        let r = t.call(&format!("server::http {method} {route}"), || {
            http::request(&addr, method, path, &[], body)
        });
        match r {
            Ok(r) if r.status == 200 => {
                tally.op(Ok(()));
                Some(r)
            }
            other => {
                tally.op(Err(format!(
                    "{method} {path}: {:?}",
                    other.map(|r| r.status)
                )));
                None
            }
        }
    };
    let n = expected.cells.len();
    let first = expected.request(schedule::warmup(n, ctx.seed)[0]);
    let trace_id = trip(t, "POST", "/run", "/run", &first.body)
        .and_then(|r| r.header("x-request-id").map(str::to_string))
        .unwrap_or_default();
    trip(t, "POST", "/stream", "/stream", &first.body);
    trip(t, "GET", "/trace/<id>", &format!("/trace/{trace_id}"), "");
    trip(t, "GET", "/traces", "/traces", "");
    trip(t, "GET", "/metrics", "/metrics", "");
    let mut healthz = Vec::new();
    for _ in 0..HEALTHZ_TRIPS {
        let start = Instant::now();
        trip(t, "GET", "/healthz", "/healthz", "");
        healthz.push(start.elapsed().as_secs_f64() * 1e3);
    }
    for r in schedule::warmup(n, ctx.seed) {
        tally.op(send(&server.addr, &expected.request(r)).1);
    }
    let mut run_ms = Vec::new();
    for p in 0..HTTP_PASSES {
        let steps: Vec<_> = schedule::pass(n, ctx.seed, p)
            .into_iter()
            .map(|s| s.map(|r| r.map(|r| expected.request(r))))
            .collect();
        for (ms, outcome) in t.call("server::http serve pass", || lockstep(&server.addr, &steps)) {
            run_ms.push(ms);
            tally.op(outcome);
        }
    }
    let counters = http::request(&server.addr, "GET", "/metrics", &[], "")
        .map(|r| families(&r.body))
        .unwrap_or_default();
    server.stop();
    t.exit();
    HttpLayer {
        healthz_ms: median(&healthz),
        run_p50_ms: median(&run_ms),
        requests: run_ms.len(),
        counters,
    }
}

/// Compare one simulated statistic with its pinned value.
fn pinned(tally: &mut Tally, name: &str, got: f64, want: u64) {
    tally.op(if got == want as f64 {
        Ok(())
    } else {
        Err(format!("{name} is {got}; pinned {want}"))
    });
}

pub fn run(ctx: &Ctx, workload: &str) -> (Tally, Vec<Metric>) {
    let mut tally = Tally::default();
    let expected = Expected::compute(&mut tally);
    let (counts, _) = in_process(ctx, Mode::Counts, &expected, &mut tally);
    let (traced, mut t) = in_process(ctx, Mode::Spans, &expected, &mut tally);
    let (untraced, _) = in_process(ctx, Mode::Plain, &expected, &mut tally);
    let http = http_layer(&mut t, ctx, &expected, &mut tally);
    pinned(
        &mut tally,
        "devsim.launches",
        counts.launches,
        pins::PAPER_LAUNCHES,
    );
    pinned(
        &mut tally,
        "devsim.transfers",
        counts.transfers,
        pins::PAPER_TRANSFERS,
    );
    pinned(
        &mut tally,
        "devsim.transfer_bytes",
        counts.transfer_bytes,
        pins::PAPER_TRANSFER_BYTES,
    );

    let layers = t.layers();
    let sum = |prefix: &str| -> f64 {
        layers
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, l)| l.1)
            .sum()
    };
    let fig4 = t.total("core::experiments::fig4_heatmaps_on");
    let ext1 = t.total("core::experiments::ext1_autotune_vs_hand_on");
    let fig7 = t.total("core::experiments::fig7_ge_on");
    let experiments = sum("core::experiments::");
    let c = &http.counters;
    let get = |name: &str| c.get(name).copied().unwrap_or(0.0);
    let run_cell_ms = median(&traced.run_cell_ms);
    let m = vec![
        metric("core.experiments.fig4_s", "s", fig4),
        metric("core.experiments.ext1_s", "s", ext1),
        metric("core.experiments.fig7_s", "s", fig7),
        metric(
            "core.experiments.rest_s",
            "s",
            experiments - fig4 - ext1 - fig7,
        ),
        metric("core.report.render_s", "s", sum("core::report::")),
        metric(
            "devsim.ns_per_launch",
            "ns",
            experiments * 1e9 / counts.launches,
        ),
        metric("devsim.launches", "count", counts.launches),
        metric("devsim.transfers", "count", counts.transfers),
        metric("devsim.transfer_bytes", "bytes", counts.transfer_bytes),
        metric("compilers.compile_total", "count", counts.compile_total),
        metric("compilers.cache_miss", "count", counts.cache_miss),
        metric(
            "compilers.cache_hit_ratio",
            "ratio",
            counts.cache_hit / (counts.cache_hit + counts.cache_miss),
        ),
        metric(
            "core.soundness.check_cell_s",
            "s",
            t.total("core::soundness::check_cell"),
        ),
        metric("core.soundness.cells", "count", counts.cells as f64),
        metric("core.serve.run_cell_ms", "ms", run_cell_ms),
        metric("server.http.healthz_ms", "ms", http.healthz_ms),
        metric("server.overhead_ms", "ms", http.run_p50_ms - run_cell_ms),
        metric(
            "server.coalesced_share",
            "ratio",
            get("coalesce_waits_total") / http.requests as f64,
        ),
        metric("server.rejected", "count", get("serve_rejected_total")),
        metric("engine.retries", "count", get("engine_retries_total")),
        metric("trace.overhead_s", "s", traced.wall_s - untraced.wall_s),
    ];
    // Only the counting pass has the registry on, so only the
    // benchmark's own counts can be compared across the passes.
    for p in [&traced, &untraced] {
        tally.op(if p.cells == counts.cells {
            Ok(())
        } else {
            Err("in-process passes disagree on their counts".into())
        });
    }
    print_table(workload, &layers, &m);
    let path = ctx
        .out_dir
        .join(format!("spans-{workload}-{}.jsonl", ctx.seed));
    if let Err(e) =
        std::fs::create_dir_all(&ctx.out_dir).and_then(|_| std::fs::write(&path, t.jsonl()))
    {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("spans written to {}", path.display());
    (tally, m)
}

/// The per-layer table: each span name's count, total and self time,
/// and its self time as a share of its workload group's span.
fn print_table(workload: &str, layers: &BTreeMap<&str, (u64, f64, f64)>, m: &[Metric]) {
    println!("per-layer trace (`--workload {workload}` runs every layer; groups name the workload each layer serves)");
    println!(
        "{:<52}{:>8}{:>12}{:>12}{:>8}",
        "span", "count", "total s", "self s", "ratio"
    );
    for group in ["paper", "check", "serve", "server"] {
        let Some(&(_, group_s, _)) = layers.get(group) else {
            continue;
        };
        println!("[{group}] {group_s:.3} s");
        for (name, (count, total, own)) in layers.iter().filter(|(n, _)| is_in(n, group)) {
            println!(
                "  {name:<50}{count:>8}{total:>12.4}{own:>12.4}{:>8.3}",
                own / group_s
            );
        }
    }
    for x in m {
        println!("  {:<36}{:>18.6} {}", x.name, x.value, x.unit);
    }
}

fn is_in(name: &str, group: &str) -> bool {
    match group {
        "paper" => name.starts_with("core::experiments::") || name.starts_with("core::report::"),
        "check" => name.starts_with("core::soundness::"),
        "serve" => name.starts_with("core::serve::"),
        _ => name.starts_with("server::"),
    }
}

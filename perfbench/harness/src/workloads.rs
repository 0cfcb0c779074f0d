//! The timed workloads. Tracing stays off: every number here is what
//! a user of `reproduce` or `reproduce serve` waits for.
//!
//! `paper` and `check` are batch products: one pass is one run of the
//! product, so their latency and throughput metrics describe passes
//! (see DESIGN.md for why every metric is reported on every workload).

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

use paccport_compilers::ArtifactCache;
use paccport_core::serve::{matrix, run_cell, CellOutcome};
use paccport_core::soundness::CheckCell;
use paccport_core::study::Scale;
use paccport_server::http;
use paccport_server::protocol::{render_response, CellReport, RunRequest};

use crate::pins;
use crate::proc::{self, Finished};
use crate::schedule::{self, Req};
use crate::stats::{median, percentile};
use crate::{metric, Ctx, Metric, Tally};

/// Start-up probes before each `check` pass: a static-table run is
/// process start, flag parsing, engine construction and one rendered
/// table, with no simulation.
const SETUP_PROBES_PER_PASS: usize = 8;
/// Fresh servers started per `serve` run to time set-up.
const SERVE_SETUPS: usize = 5;
/// Requests per `serve` run at least, so that ten lie beyond p99.
const SERVE_MIN_REQUESTS: usize = 1000;

fn run(ctx: &Ctx, args: &[&str]) -> Finished {
    proc::run(&ctx.reproduce, args).unwrap_or_else(|e| {
        eprintln!("perfbench: cannot run {}: {e}", ctx.reproduce.display());
        std::process::exit(1);
    })
}

fn check_digest(what: &str, r: &Finished, (len, fnv): (usize, u64)) -> Result<(), String> {
    if !r.ok() {
        return Err(format!("{what} exited with {:?}", r.code));
    }
    let got = (r.stdout.len(), proc::fnv64(&r.stdout));
    if got != (len, fnv) {
        return Err(format!(
            "{what} stdout is {} bytes with digest {:016x}; pinned {len} bytes, {fnv:016x}",
            got.0, got.1
        ));
    }
    Ok(())
}

/// What a batch workload measures over its passes.
#[derive(Default)]
struct Batch {
    setup: Vec<f64>,
    walls: Vec<f64>,
    cpu: Vec<f64>,
    rss: Vec<f64>,
}

impl Batch {
    fn more(&self, ctx: &Ctx, start: Instant) -> bool {
        self.walls.is_empty() || start.elapsed() < ctx.seconds
    }

    /// A run holds 8 to 25 passes, too few for ten samples beyond any
    /// tail percentile, so both latency figures read the median pass: a
    /// statistic no single slow pass moves. DESIGN.md says why the
    /// batch workloads report them at all, and why not from a stream
    /// of short commands.
    fn metrics(&self, name: &str, window_s: f64) -> Vec<Metric> {
        let pass_ms = median(&self.walls) * 1e3;
        println!(
            "{name}: {} passes in {window_s:.1} s, median {pass_ms:.0} ms",
            self.walls.len()
        );
        vec![
            metric("setup_s", "s", median(&self.setup)),
            metric("wall_s", "s", median(&self.walls)),
            metric("cpu_s", "s", median(&self.cpu)),
            metric("throughput_rps", "1/s", self.walls.len() as f64 / window_s),
            metric("latency_p50_ms", "ms", pass_ms),
            metric("latency_p99_ms", "ms", pass_ms),
            metric("peak_rss_mb", "MiB", median(&self.rss)),
        ]
    }
}

/// `paper`: the whole evaluation at Table IV sizes, stdout checked
/// against the pinned digest. Set-up is the time until the run prints
/// its banner, which it does right after flag parsing and engine
/// construction.
pub fn paper(ctx: &Ctx) -> (Tally, Vec<Metric>) {
    let mut tally = Tally::default();
    let mut b = Batch::default();
    let start = Instant::now();
    while b.more(ctx, start) {
        let r = run(ctx, &["--jobs", "2"]);
        tally.op(check_digest("paper run", &r, pins::PAPER_STDOUT));
        b.setup.push(r.first_line_s);
        b.walls.push(r.wall_s);
        b.cpu.push(r.cpu_s);
        b.rss.push(r.peak_rss_mb);
    }
    let m = b.metrics("paper", start.elapsed().as_secs_f64());
    (tally, m)
}

/// `check`: the soundness cross-check at quick scale. It prints only
/// when done, so set-up is timed on static-table runs.
///
/// `reproduce conform` is not run: at this commit it reports a genuine
/// mismatch in the `transform/reduction-to-grouped(8)` leg on about one
/// random program in 900 (DESIGN.md, "Known defect"), so no seeded
/// conform workload can pass its correctness check.
pub fn check(ctx: &Ctx) -> (Tally, Vec<Metric>) {
    let mut tally = Tally::default();
    let mut b = Batch::default();
    let start = Instant::now();
    while b.more(ctx, start) {
        for _ in 0..SETUP_PROBES_PER_PASS {
            let r = run(ctx, &["--exp", "tab1", "--jobs", "2"]);
            tally.op(check_digest("static-table run", &r, pins::TAB1_STDOUT));
            b.setup.push(r.wall_s);
        }
        let sound = run(ctx, &["--check", "--scale", "quick", "--jobs", "2"]);
        tally.op(check_digest(
            "soundness run",
            &sound,
            pins::CHECK_QUICK_STDOUT,
        ));
        b.walls.push(sound.wall_s);
        b.cpu.push(sound.cpu_s);
        b.rss.push(sound.peak_rss_mb);
    }
    let m = b.metrics("check", start.elapsed().as_secs_f64());
    (tally, m)
}

/// A `reproduce serve` process under test. Dropping it without
/// [`Server::stop`] (on a panic) kills the process.
pub struct Server {
    pub child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
    stopped: bool,
}

impl Server {
    /// Spawn a server and wait until `GET /healthz` answers.
    pub fn start(ctx: &Ctx) -> Result<Server, String> {
        let mut child = Command::new(&ctx.reproduce)
            .args(["serve", "--jobs", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line.trim().rsplit(' ').next().unwrap_or("").to_string();
        let mut server = Server {
            child,
            stdout,
            addr,
            stopped: false,
        };
        if read.is_err() || !server.addr.contains(':') {
            server.stop();
            return Err(format!(
                "serve printed `{}` instead of its address",
                line.trim()
            ));
        }
        match http::request(&server.addr, "GET", "/healthz", &[], "") {
            Ok(r) if r.status == 200 => Ok(server),
            other => {
                server.stop();
                Err(format!(
                    "GET /healthz answered {:?}",
                    other.map(|r| r.status)
                ))
            }
        }
    }

    /// Drain and stop the server, and wait until it has exited.
    pub fn stop(&mut self) {
        if http::request(&self.addr, "POST", "/shutdown", &[], "").is_err() {
            let _ = self.child.kill();
        }
        let mut rest = Vec::new();
        let _ = self.stdout.read_to_end(&mut rest);
        if let Err(e) = proc::reap(self.child.id()) {
            eprintln!("perfbench: cannot reap serve: {e}");
        }
        self.stopped = true;
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.stopped {
            let _ = self.child.kill();
            let _ = proc::reap(self.child.id());
        }
    }
}

/// One `POST /run` and its expected body.
pub struct Request {
    pub body: String,
    expect: String,
}

/// Build requests with the body `core::serve::run_cell` +
/// `protocol::render_response` give in-process. Without fault
/// injection a cell's outcome does not depend on the request seed
/// (`core::serve` documents it; checked here on the first cell), so
/// each cell runs once.
pub struct Expected {
    pub cells: Vec<CheckCell>,
    pub outcomes: Vec<CellOutcome>,
}

impl Expected {
    pub fn compute(tally: &mut Tally) -> Expected {
        let cells = matrix(&Scale::quick());
        let cache = ArtifactCache::new();
        let outcomes: Vec<CellOutcome> = cells
            .iter()
            .map(|c| run_cell(&cache, c, 0).unwrap_or_else(|e| panic!("{}: {e}", c.label())))
            .collect();
        let again = run_cell(&cache, &cells[0], 12_345);
        tally.op(match again {
            Ok(o) if o == outcomes[0] => Ok(()),
            _ => Err("run_cell depends on the request seed".into()),
        });
        Expected { cells, outcomes }
    }

    pub fn request(&self, r: Req) -> Request {
        let cell = &self.cells[r.cell];
        let rr = RunRequest {
            benchmark: cell.benchmark.clone(),
            variant: cell.variant.clone(),
            target: cell.series.clone(),
            scale: "quick".into(),
            seed: r.seed,
        };
        let (_, expect) = render_response(&rr, &[CellReport::Ok(self.outcomes[r.cell].clone())]);
        Request {
            body: format!("{{{}}}", rr.echo()),
            expect,
        }
    }
}

/// Send one request; its latency in ms runs from send to the last
/// body byte.
pub fn send(addr: &str, req: &Request) -> (f64, Result<(), String>) {
    let t = Instant::now();
    let resp = http::request(addr, "POST", "/run", &[], &req.body);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let outcome = match resp {
        Ok(r) if r.status == 200 && r.body == req.expect => Ok(()),
        Ok(r) if r.status == 200 => Err(format!("POST /run {}: body differs", req.body)),
        Ok(r) => Err(format!("POST /run {}: status {}", req.body, r.status)),
        Err(e) => Err(format!("POST /run {}: {e}", req.body)),
    };
    (ms, outcome)
}

/// Drive one pass with two connections in lockstep: at each step both
/// send their request (or stay idle) and wait for both replies, so a
/// pair sent "at once" really overlaps and the work order is fixed.
pub fn lockstep(addr: &str, steps: &[[Option<Request>; 2]]) -> Vec<(f64, Result<(), String>)> {
    let barrier = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        let conns: Vec<_> = (0..2)
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut out = Vec::new();
                    for step in steps {
                        if let Some(req) = &step[c] {
                            out.push(send(addr, req));
                        }
                        barrier.wait();
                    }
                    out
                })
            })
            .collect();
        conns
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// `serve`: a closed loop of two connections in lockstep against a
/// fresh, warmed `reproduce serve --jobs 2`.
pub fn serve(ctx: &Ctx) -> (Tally, Vec<Metric>) {
    let mut tally = Tally::default();
    let expected = Expected::compute(&mut tally);
    let n = expected.cells.len();
    let mut setup = Vec::new();
    let mut server = None;
    for k in 0..SERVE_SETUPS {
        let t = Instant::now();
        let mut s = Server::start(ctx).unwrap_or_else(|e| {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        });
        for r in schedule::warmup(n, ctx.seed ^ k as u64) {
            tally.op(send(&s.addr, &expected.request(r)).1);
        }
        setup.push(t.elapsed().as_secs_f64());
        if k + 1 < SERVE_SETUPS {
            s.stop();
        } else {
            server = Some(s);
        }
    }
    let mut server = server.expect("at least one set-up");
    let (mut lat, mut walls, mut completed) = (Vec::new(), Vec::new(), 0);
    let cpu_before = proc::cpu_s(server.child.id());
    let start = Instant::now();
    let mut p = 0;
    while lat.len() < SERVE_MIN_REQUESTS || start.elapsed() < ctx.seconds {
        let steps: Vec<[Option<Request>; 2]> = schedule::pass(n, ctx.seed, p)
            .into_iter()
            .map(|s| s.map(|r| r.map(|r| expected.request(r))))
            .collect();
        let t = Instant::now();
        let results = lockstep(&server.addr, &steps);
        walls.push(t.elapsed().as_secs_f64());
        for (ms, outcome) in results {
            lat.push(ms);
            completed += usize::from(outcome.is_ok());
            tally.op(outcome);
        }
        p += 1;
    }
    let window = start.elapsed().as_secs_f64();
    let cpu = proc::cpu_s(server.child.id()).and_then(|end| Ok(end - cpu_before?));
    let rss = proc::vm_hwm_mb(server.child.id());
    // Stop the server before any exit below, so it never outlives us.
    server.stop();
    let (cpu, rss) = match (cpu, rss) {
        (Ok(cpu), Ok(rss)) => (cpu, rss),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench: cannot read the server's CPU time or peak RSS: {e}");
            std::process::exit(1);
        }
    };
    println!("serve: {} requests in {p} passes, {window:.1} s", lat.len());
    let p99 = percentile(&lat, 99.0).expect("the loop runs until p99 has ten samples beyond");
    let m = vec![
        metric("setup_s", "s", median(&setup)),
        metric("wall_s", "s", median(&walls)),
        // Ticks of the server's whole measured window, per pass: the
        // passes hold the same work, and one pass is too short to
        // read off clock ticks.
        metric("cpu_s", "s", cpu / p as f64),
        metric("throughput_rps", "1/s", completed as f64 / window),
        metric("latency_p50_ms", "ms", median(&lat)),
        metric("latency_p99_ms", "ms", p99),
        metric("peak_rss_mb", "MiB", rss),
    ];
    (tally, m)
}

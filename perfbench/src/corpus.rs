//! `corpus_batch`: the paper's 211-loop corpus on the six paper machines,
//! compiled with the default `PipelineConfig` by `run_loop` in one thread
//! as a closed loop — the repro/table path.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::Instant;

use vliw_analysis::Severity;
use vliw_ir::Loop;
use vliw_pipeline::{paper_machines, run_loop, LoopResult, PipelineConfig};

use crate::util::{mean, median, percentile, proc_status_mb, Rng};
use crate::{Opts, Report};

/// p99 limit of the single-worker compile-service replay behind
/// `max_rps_at_slo` (the same limit `serve_cold` puts on interactive
/// compiles).
const SLO_MS: f64 = 20.0;

/// Sample of (loop, machine) pairs re-run with both simulators.
const SIM_SAMPLE: usize = 24;

/// Set-up runs per measurement; `setup_s` is their median.
const SETUP_RUNS: usize = 15;

/// Every (loop index, machine index) pair of one sweep.
fn all_pairs(n_loops: usize, n_machines: usize) -> Vec<(usize, usize)> {
    (0..n_loops)
        .flat_map(|l| (0..n_machines).map(move |m| (l, m)))
        .collect()
}

pub fn has_errors(r: &LoopResult) -> bool {
    r.diagnostics.iter().any(|d| d.severity == Severity::Error)
}

/// Body of the `--setup-probe` child: what a `corpus_batch` process does
/// before its first `run_loop` call. Once ready to compile it prints the
/// seconds it spent generating the corpus (input generation, which
/// `setup_s` excludes) and exits.
pub fn setup_probe() {
    let t0 = Instant::now();
    let corpus = vliw_loopgen::corpus();
    let gen_s = t0.elapsed().as_secs_f64();
    let machines = paper_machines();
    let cfg = PipelineConfig::default();
    let mut pairs = all_pairs(corpus.len(), machines.len());
    Rng::new(0).shuffle(&mut pairs);
    std::hint::black_box((&machines, &cfg, &pairs, heavy_loops(&corpus)));
    println!("{gen_s}");
}

/// `setup_s`: the median over [`SETUP_RUNS`] fresh `--setup-probe`
/// processes of the time from spawning one until it is ready to compile,
/// less its corpus generation.
fn setup_seconds() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs = Vec::new();
    for _ in 0..SETUP_RUNS {
        let t0 = Instant::now();
        let mut child = Command::new(&exe)
            .arg("--setup-probe")
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn set-up probe: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        let read = BufReader::new(stdout).read_line(&mut line);
        let ready_s = t0.elapsed().as_secs_f64();
        let status = child
            .wait()
            .map_err(|e| format!("wait for set-up probe: {e}"))?;
        let gen_s: f64 = match (read, status.success(), line.trim().parse()) {
            (Ok(_), true, Ok(s)) => s,
            _ => return Err(format!("set-up probe failed ({status}), printed {line:?}")),
        };
        runs.push(ready_s - gen_s);
    }
    Ok(median(&runs))
}

/// The largest tenth of the corpus by operation count: `corpus_batch`'s
/// heavy class.
pub fn heavy_loops(corpus: &[Loop]) -> Vec<bool> {
    let mut ops: Vec<usize> = corpus.iter().map(Loop::n_ops).collect();
    ops.sort_unstable();
    let cut = ops[ops.len() - ops.len().div_ceil(10)];
    corpus.iter().map(|l| l.n_ops() >= cut).collect()
}

/// Highest rate on a geometric ladder (4% steps) at which a single FIFO
/// worker fed on a fixed schedule with the measured service times, in the
/// order they were measured, keeps p99 sojourn within `slo_us` and ends
/// with no more queued work than that limit (Lindley's recursion).
fn replay_max_rps(service_us: &[f64], slo_us: f64) -> f64 {
    let mut best = 0.0;
    let mut rate = 50.0f64;
    while rate < 100_000.0 {
        let gap = 1e6 / rate;
        let mut wait = 0.0f64;
        let mut sojourn = Vec::with_capacity(service_us.len());
        for &s in service_us {
            sojourn.push(wait + s);
            wait = (wait + s - gap).max(0.0);
        }
        if percentile(&sojourn, 0.99) > slo_us || wait > slo_us {
            break;
        }
        best = rate.round();
        rate *= 1.04;
    }
    best
}

/// One timed sweep: its wall time and per-call latencies (all calls, and
/// the heavy class's).
struct Sweep {
    secs: f64,
    lat_us: Vec<f64>,
    heavy_us: Vec<f64>,
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let corpus = vliw_loopgen::corpus();
    let machines = paper_machines();
    let cfg = PipelineConfig::default();
    let mut rng = Rng::new(opts.seed);
    let mut pairs = all_pairs(corpus.len(), machines.len());
    if opts.trace {
        rng.shuffle(&mut pairs);
        let items: Vec<crate::trace::Item> = pairs
            .iter()
            .map(|&(l, m)| crate::trace::Item::new(&corpus[l], &machines[m], &cfg))
            .collect();
        return crate::trace::run(opts, &items, None);
    }

    let mut report = Report::default();
    let setup_s = setup_seconds()?;
    let heavy = heavy_loops(&corpus);

    let mut sweep_stats: Vec<Sweep> = Vec::new();
    let (mut norm, mut copies) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut sweeps = 0usize;
    while sweeps == 0 || t0.elapsed().as_secs_f64() < opts.seconds {
        rng.shuffle(&mut pairs);
        let sweep_t0 = Instant::now();
        let (mut sweep_lat, mut sweep_heavy) = (Vec::new(), Vec::new());
        for &(l, m) in &pairs {
            let t = Instant::now();
            let r = run_loop(&corpus[l], &machines[m], &cfg);
            let us = t.elapsed().as_secs_f64() * 1e6;
            sweep_lat.push(us);
            if heavy[l] {
                sweep_heavy.push(us);
            }
            report.attempted += 1;
            if has_errors(&r) {
                report.mismatch(format!(
                    "{} on {}: Error-level diagnostics",
                    corpus[l].name, machines[m].name
                ));
            }
            if sweeps == 0 {
                norm.push(r.normalized);
                copies.push(r.n_copies as f64);
            }
        }
        sweep_stats.push(Sweep {
            secs: sweep_t0.elapsed().as_secs_f64(),
            lat_us: sweep_lat,
            heavy_us: sweep_heavy,
        });
        sweeps += 1;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let rss = proc_status_mb(std::process::id(), "VmHWM").unwrap_or(0.0);

    // Output check: a seeded sample re-run on both simulators must be
    // bit-exact against the scalar reference and lint-clean. Physical
    // execution is only defined for a spill-free colouring; a pair whose
    // colouring keeps spills (the known near-capacity unroll-4 stencils on
    // the 8×2 banks) must still pass the virtual-register simulation and is
    // reported as physically unverified.
    let sim_cfg = PipelineConfig {
        simulate: true,
        simulate_physical: true,
        ..PipelineConfig::default()
    };
    let virtual_cfg = PipelineConfig {
        simulate_physical: false,
        ..sim_cfg.clone()
    };
    let mut unverified = 0;
    for _ in 0..SIM_SAMPLE {
        let (l, m) = pairs[rng.below(pairs.len())];
        let mut r = run_loop(&corpus[l], &machines[m], &sim_cfg);
        if r.sim_ok != Some(true) && r.spills > 0 {
            unverified += 1;
            r = run_loop(&corpus[l], &machines[m], &virtual_cfg);
        }
        report.attempted += 1;
        if r.sim_ok != Some(true) || has_errors(&r) {
            report.mismatch(format!(
                "{} on {}: simulation sim_ok={:?}, errors={}",
                corpus[l].name,
                machines[m].name,
                r.sim_ok,
                has_errors(&r)
            ));
        }
    }
    if unverified > 0 {
        eprintln!("corpus_batch: {unverified} sampled pair(s) keep spills: physically unverified");
    }

    eprintln!(
        "corpus_batch: {} run_loop calls in {sweeps} sweeps, {elapsed:.2}s",
        sweeps * pairs.len()
    );
    report.metric("setup_s", setup_s, "s");
    // Every figure is the median over sweeps, so a slow stretch of the host
    // moves one sweep, not the result.
    let over_sweeps =
        |f: &dyn Fn(&Sweep) -> f64| median(&sweep_stats.iter().map(f).collect::<Vec<f64>>());
    report.metric(
        "throughput_per_s",
        over_sweeps(&|s| s.lat_us.len() as f64 / s.secs),
        "1/s",
    );
    report.metric(
        "latency_p50_us",
        over_sweeps(&|s| percentile(&s.lat_us, 0.5)),
        "us",
    );
    report.metric(
        "latency_p99_us",
        over_sweeps(&|s| percentile(&s.lat_us, 0.99)),
        "us",
    );
    report.metric(
        "max_rps_at_slo",
        over_sweeps(&|s| replay_max_rps(&s.lat_us, SLO_MS * 1e3)),
        "1/s",
    );
    report.metric(
        "heavy_p99_ms",
        over_sweeps(&|s| percentile(&s.heavy_us, 0.99)) / 1e3,
        "ms",
    );
    report.metric("normalized_ii_mean", mean(&norm), "%");
    report.metric("kernel_copies_mean", mean(&copies), "count");
    report.metric("peak_rss_mb", rss, "MiB");
    Ok(report)
}

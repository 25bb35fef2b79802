//! The traced run: an in-memory span recorder around calls into each
//! crate's public functions, a replay of `run_loop`'s stages, the serve
//! layer's per-request steps and the solvers, plus the counter deltas of a
//! server phase. Nothing inside the program is instrumented: every span is
//! opened here, around a public call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::rc::Rc;
use std::time::{Duration, Instant};

use vliw_analysis::{Analyzer, Artifacts, JointClaim, LintPass, Report as LintReport};
use vliw_core::{assign_banks_caps, build_rcg, insert_copies, LoopContext};
use vliw_ddg::build_ddg;
use vliw_ir::Loop;
use vliw_machine::MachineDesc;
use vliw_pipeline::{run_loop, schedule_with, schedule_with_ctx, PartitionerKind, PipelineConfig};
use vliw_regalloc::allocate;
use vliw_sched::{verify_schedule, SchedProblem};
use vliw_serve::hist::percentile_of;
use vliw_serve::{parse_json, CompileRequest, CompileResult, DiskStore, Json, TieredCache};

use crate::loadgen::{fixed_schedule, open_loop, phase_stats, Outcome, Planned};
use crate::server::{compile_line, delta, hist_delta, ServerProc};
use crate::util::{mean, percentile};
use crate::{Opts, Report};

/// Items whose disk-tier put (fsynced) and get are replayed.
const DISK_SAMPLE: usize = 64;

/// Seconds between `stats` probes during a traced server phase.
const PROBE_EVERY_S: f64 = 0.01;

/// One compile the workload performs: the unit the replay iterates over.
pub struct Item {
    pub body: Loop,
    pub machine: MachineDesc,
    pub cfg: PipelineConfig,
}

impl Item {
    pub fn new(body: &Loop, machine: &MachineDesc, cfg: &PipelineConfig) -> Item {
        Item {
            body: body.clone(),
            machine: machine.clone(),
            cfg: cfg.clone(),
        }
    }
}

struct Span {
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: usize,
}

/// Spans kept in memory, written out when the run ends.
pub struct Recorder {
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    req: Cell<usize>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            req: Cell::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span `layer.name`, child of the innermost open span.
    pub fn span<R>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                layer,
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.stack.borrow().last().copied(),
                req: self.req.get(),
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    /// Per `layer.name`: (total inclusive ns, total self ns).
    fn totals(&self) -> BTreeMap<String, (u64, u64)> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(format!("{}.{}", s.layer, s.name)).or_default();
            e.0 += dur;
            e.1 += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// One JSON line per span: name, start, end, parent and request id.
    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}.{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.layer, s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

/// A lint pass wrapper that records a span around the pass it wraps.
struct TimedPass {
    inner: Box<dyn LintPass>,
    rec: Rc<Recorder>,
}

impl LintPass for TimedPass {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn run(&self, ctx: &Artifacts<'_>, report: &mut LintReport) {
        self.rec.span("analysis", self.inner.name(), || {
            self.inner.run(ctx, report)
        });
    }
}

/// `Analyzer::empty()` with the default passes registered in the order
/// `Analyzer::with_default_passes()` uses, each wrapped in a [`TimedPass`].
fn timed_analyzer(rec: &Rc<Recorder>) -> Analyzer {
    use vliw_analysis::{
        bank_lints, copy_lints, ir_lints, joint_lints, normal_lints, rcg_lints, sched_lints,
    };
    let passes: Vec<Box<dyn LintPass>> = vec![
        Box::new(ir_lints::IrPass),
        Box::new(normal_lints::NormalFormPass),
        Box::new(rcg_lints::RcgPass),
        Box::new(bank_lints::BankPass),
        Box::new(bank_lints::PressurePass),
        Box::new(copy_lints::CopyPass),
        Box::new(sched_lints::SchedPass),
        Box::new(sched_lints::ExpansionPass),
        Box::new(joint_lints::JointPass),
    ];
    let mut a = Analyzer::empty();
    for inner in passes {
        a.register(Box::new(TimedPass {
            inner,
            rec: Rc::clone(rec),
        }));
    }
    debug_assert_eq!(a.pass_names(), Analyzer::with_default_passes().pass_names());
    a
}

/// Solver effort gathered from the replayed joint/exact solves.
#[derive(Default)]
struct SolverCounts {
    joint_solves: u64,
    joint_closed: u64,
    bank_nodes: u64,
    sched_nodes: u64,
    nogood_hits: u64,
    exact_solves: u64,
    exact_closed: u64,
    exact_nodes: u64,
}

/// Quality counts of one replayed compile.
struct Replayed {
    kernel_copies: usize,
    ii_over_ideal: f64,
    spills: usize,
}

/// `run_loop`'s stages, each called through its crate's public API under
/// its own span, in `run_loop`'s order (the allocator's spill loop never
/// runs at paper scale and is not replayed).
fn replay(
    rec: &Recorder,
    analyzer: &Analyzer,
    item: &Item,
    solvers: &mut SolverCounts,
) -> Replayed {
    let (body, machine, cfg) = (&item.body, &item.machine, &item.cfg);
    let ctx = rec.span("core", "front_end", || {
        LoopContext::with_scheduler(body, machine, |p, g, s| schedule_with_ctx(cfg, p, g, s))
    });
    let caps: Vec<usize> = machine.clusters.iter().map(|c| c.n_fus).collect();
    let greedy = || {
        let g = build_rcg(body, &ctx.ideal, &ctx.slack, &cfg.partition);
        let p = assign_banks_caps(&g, &caps, &cfg.partition);
        (g, p)
    };
    let mut joint = None;
    let (rcg, partition) = match cfg.partitioner {
        PartitionerKind::Exact { budget_ms } => {
            let (g, seed) = rec.span("core", "partition", greedy);
            let exact_cfg = vliw_exact::ExactConfig {
                budget_ms,
                ..Default::default()
            };
            let r = rec.span("exact", "solve", || {
                vliw_exact::solve(&g, machine.n_clusters(), Some(&seed), &exact_cfg)
            });
            solvers.exact_solves += 1;
            solvers.exact_closed += r.optimal as u64;
            solvers.exact_nodes += r.stats.nodes_expanded;
            (g, r.partition)
        }
        PartitionerKind::Joint { budget_ms } => {
            let g = rec.span("core", "partition", || {
                build_rcg(body, &ctx.ideal, &ctx.slack, &cfg.partition)
            });
            let r = rec.span("joint", "solve", || {
                vliw_joint::solve_joint(
                    body,
                    machine,
                    &cfg.partition,
                    &vliw_joint::JointConfig { budget_ms },
                )
            });
            solvers.joint_solves += 1;
            solvers.joint_closed += r.optimal as u64;
            solvers.bank_nodes += r.stats.bank_nodes;
            solvers.sched_nodes += r.stats.sched_nodes;
            solvers.nogood_hits += r.stats.nogood_hits;
            let p = r.partition.clone();
            joint = Some(r);
            (g, p)
        }
        _ => rec.span("core", "partition", greedy),
    };
    rec.span("analysis", "gate1", || {
        let a = Artifacts::new(body, machine, &cfg.partition)
            .with_ideal(&ctx.ideal, &ctx.slack)
            .with_partition(&partition)
            .with_rcg(&rcg);
        analyzer.analyze(&a)
    });
    let clustered = rec.span("core", "copies", || insert_copies(body, &partition));
    let cddg = rec.span("ddg", "build", || {
        build_ddg(&clustered.body, &machine.latencies)
    });
    let sched = rec.span("sched", "clustered", || {
        let problem = SchedProblem::clustered(&clustered.body, machine, &clustered.cluster_of);
        let witness = joint.as_ref().and_then(|j| {
            (j.schedule.times.len() == clustered.body.n_ops()
                && verify_schedule(&problem, &cddg, &j.schedule).is_ok())
            .then(|| j.schedule.clone())
        });
        witness.unwrap_or_else(|| schedule_with(cfg, &problem, &cddg))
    });
    let alloc = rec.span("regalloc", "allocate", || {
        allocate(
            &clustered.body,
            &cddg,
            &sched,
            &clustered.vreg_bank,
            machine,
        )
    });
    rec.span("analysis", "gate2", || {
        let mut a = Artifacts::new(body, machine, &cfg.partition)
            .with_clustered(&clustered.body, &clustered.cluster_of, &clustered.vreg_bank)
            .with_cddg(&cddg)
            .with_schedule(&sched);
        if let Some(j) = &joint {
            a = a.with_joint(JointClaim {
                schedule: &j.schedule,
                claimed_ii: j.ii,
                greedy_ii: j.greedy_ii,
                lower_bound_ii: j.lower_bound_ii,
                optimal: j.optimal,
            });
        }
        analyzer.analyze(&a)
    });
    Replayed {
        kernel_copies: clustered.n_kernel_copies,
        ii_over_ideal: sched.ii as f64 / ctx.ideal.ii as f64,
        spills: alloc.total_spills(),
    }
}

/// Counter deltas and client timings of a traced server phase at the
/// workload's reference rate.
pub struct ServePhase {
    pub plan: Vec<Planned>,
    pub outcomes: Vec<Outcome>,
    before: Json,
    after: Json,
    pool_bytes_peak: f64,
    lag_p99_us: f64,
    backlog_max: usize,
}

/// Drive the reference-rate `plan` with a `stats` probe every
/// [`PROBE_EVERY_S`] seconds (for the pool's peak). Returns the workload's
/// requests and outcomes with the probes removed.
pub fn serve_phase(
    server: &mut ServerProc,
    lines: &[String],
    plan: &[Planned],
) -> Result<ServePhase, String> {
    let probe = lines.len();
    let mut all_lines = lines.to_vec();
    all_lines.push("{\"op\":\"stats\"}\n".to_string());
    let seconds = plan.last().map_or(0.0, |p| p.due_us as f64 / 1e6);
    let mut plan = plan.to_vec();
    for due in fixed_schedule(1.0 / PROBE_EVERY_S, seconds) {
        plan.push(Planned {
            due_us: due,
            line: probe,
        });
    }
    plan.sort_by_key(|p| (p.due_us, p.line == probe));
    let before = server.stats()?;
    let outcomes = open_loop(&server.conns, &all_lines, &plan, Duration::from_secs(10))?;
    let after = server.stats()?;
    let mut pool_bytes_peak = 0.0f64;
    let (mut kept_plan, mut kept) = (Vec::new(), Vec::new());
    for (p, o) in plan.into_iter().zip(outcomes) {
        if p.line == probe {
            let used = parse_json(&o.reply)
                .ok()
                .and_then(|d| d.get("stats")?.get("pool_bytes_used")?.as_f64());
            pool_bytes_peak = pool_bytes_peak.max(used.unwrap_or(0.0));
        } else {
            kept_plan.push(p);
            kept.push(o);
        }
    }
    let st = phase_stats(&kept_plan, &kept);
    Ok(ServePhase {
        plan: kept_plan,
        outcomes: kept,
        before,
        after,
        pool_bytes_peak,
        lag_p99_us: st.lag_p99_us,
        backlog_max: st.backlog_max,
    })
}

/// Every per-layer metric, in report order (the names `BENCHMARK.json`
/// lists).
const PASSES: [&str; 9] = [
    "ir-structure",
    "normal-form",
    "rcg-consistency",
    "bank-legality",
    "bank-pressure",
    "copy-dataflow",
    "schedule-legality",
    "expansion-shape",
    "joint-claims",
];

const STAGES: [&str; 6] = [
    "core.front_end",
    "core.partition",
    "core.copies",
    "ddg.build",
    "sched.clustered",
    "regalloc.allocate",
];

/// Replay every item under the span recorder and derive the per-layer
/// metrics; `phase` adds the server-side ones (zero without a server).
pub fn run(opts: &Opts, items: &[Item], phase: Option<&ServePhase>) -> Result<Report, String> {
    let rec = Rc::new(Recorder::new());
    let analyzer = timed_analyzer(&rec);
    let mut report = Report::default();
    let n = items.len().max(1) as f64;

    // Untraced `run_loop` throughput over the same items, for the overhead.
    let t0 = Instant::now();
    for it in items {
        std::hint::black_box(run_loop(&it.body, &it.machine, &it.cfg));
    }
    let untraced_per_s = items.len() as f64 / t0.elapsed().as_secs_f64();

    let cache = TieredCache::new(items.len() + 1, None);
    let disk_dir = crate::server::fresh_dir(&opts.work_dir, &format!("trace-disk-{}", opts.seed))?;
    let disk = DiskStore::new(&disk_dir);
    let mut solvers = SolverCounts::default();
    let (mut copies, mut ii_ratio, mut spills) = (Vec::new(), Vec::new(), Vec::new());
    let mut run_loop_ns = 0u64;
    for (i, it) in items.iter().enumerate() {
        rec.req.set(i);
        let t = Instant::now();
        let result = rec.span("pipeline", "run_loop", || {
            run_loop(&it.body, &it.machine, &it.cfg)
        });
        run_loop_ns += t.elapsed().as_nanos() as u64;
        report.attempted += 1;
        if crate::corpus::has_errors(&result) {
            report.mismatch(format!(
                "{} on {}: Error-level diagnostics",
                it.body.name, it.machine.name
            ));
        }
        let r = rec.span("pipeline", "replay", || {
            replay(&rec, &analyzer, it, &mut solvers)
        });
        copies.push(r.kernel_copies as f64);
        ii_ratio.push(r.ii_over_ideal);
        spills.push(r.spills as f64);

        // The serve layer's steps for this item's wire line.
        let req = CompileRequest::from_parts(&it.body, &it.machine, &it.cfg);
        let line = compile_line(&req);
        let doc = rec
            .span("serve", "json_parse", || parse_json(line.trim_end()))
            .map_err(|e| e.to_string())?;
        let decoded = rec.span("serve", "request_decode", || {
            let r = CompileRequest::from_json(doc.get("request").unwrap_or(&Json::Null))?;
            r.decode().map_err(|e| e.to_string())?;
            Ok::<_, String>(r)
        })?;
        let key = rec.span("serve", "key", || decoded.cache_key());
        rec.span("normal", "canonicalize", || {
            vliw_normal::canonicalize(&it.body)
        });
        let res = CompileResult::from_loop_result(key.clone(), &result);
        cache.put(&key, &res);
        rec.span("serve", "cache_probe", || cache.probe(&key))
            .ok_or("cache probe missed a stored key")?;
        rec.span("serve", "render", || res.to_json().render());
        if i < DISK_SAMPLE {
            rec.span("serve", "disk_put", || disk.put(&key, &res));
            rec.span("serve", "disk_get", || disk.get(&key))
                .ok_or("disk get missed a stored key")?;
        }
    }
    let traced_per_s = items.len() as f64 / (run_loop_ns as f64 / 1e9);

    let totals = rec.totals();
    let per_item = |name: &str| totals.get(name).map_or(0.0, |t| t.0 as f64 / 1e3 / n);
    let disk_n = items.len().clamp(1, DISK_SAMPLE) as f64;
    let per_disk = |name: &str| totals.get(name).map_or(0.0, |t| t.0 as f64 / 1e3 / disk_n);

    for p in PASSES {
        report.metric(
            &format!("analysis.{p}_us"),
            per_item(&format!("analysis.{p}")),
            "us",
        );
    }
    report.metric("analysis.gate1_us", per_item("analysis.gate1"), "us");
    report.metric("analysis.gate2_us", per_item("analysis.gate2"), "us");
    let mut staged = 0.0;
    for s in STAGES {
        let v = per_item(s);
        staged += v;
        report.metric(&format!("{s}_us"), v, "us");
    }
    staged += per_item("analysis.gate1") + per_item("analysis.gate2");
    staged += per_item("joint.solve") + per_item("exact.solve");
    let run_loop_us = per_item("pipeline.run_loop");
    report.metric("pipeline.run_loop_us", run_loop_us, "us");
    report.metric("pipeline.unaccounted_us", run_loop_us - staged, "us");
    report.metric("core.kernel_copies", mean(&copies), "count");
    report.metric("sched.ii_over_ideal", mean(&ii_ratio), "ratio");
    report.metric("regalloc.spills", spills.iter().sum(), "count");
    report.metric(
        "normal.canonicalize_us",
        per_item("normal.canonicalize"),
        "us",
    );
    for s in [
        "json_parse",
        "request_decode",
        "key",
        "cache_probe",
        "render",
    ] {
        report.metric(
            &format!("serve.{s}_us"),
            per_item(&format!("serve.{s}")),
            "us",
        );
    }
    report.metric("serve.disk_put_us", per_disk("serve.disk_put"), "us");
    report.metric("serve.disk_get_us", per_disk("serve.disk_get"), "us");

    // Server-side layers from the phase's counter and histogram deltas.
    let server = |f: &dyn Fn(&ServePhase) -> f64| phase.map_or(0.0, f);
    let client_p50 = server(&|p| {
        let lat: Vec<f64> = p.outcomes.iter().filter_map(|o| o.latency_us).collect();
        percentile(&lat, 0.5)
    });
    let hist = |field: &'static str, q: f64| {
        server(&move |p| percentile_of(&hist_delta(&p.before, &p.after, field), q) as f64)
    };
    let (svc50, svc99) = (hist("latency_hist", 0.5), hist("latency_hist", 0.99));
    let (q50, q99) = (hist("queue_hist", 0.5), hist("queue_hist", 0.99));
    report.metric("serve.service_p50_us", svc50, "us");
    report.metric("serve.service_p99_us", svc99, "us");
    report.metric("serve.queue_p99_us", q99, "us");
    report.metric(
        "serve.wire_overhead_us",
        if phase.is_some() {
            client_p50 - svc50 - q50
        } else {
            0.0
        },
        "us",
    );
    let d = |field: &'static str| server(&move |p| delta(&p.before, &p.after, field));
    report.metric("serve.sync_writes", d("sync_writes"), "count");
    report.metric("serve.dedup_waits", d("dedup_waits"), "count");

    let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    report.metric(
        "joint.solve_us",
        totals.get("joint.solve").map_or(0.0, |t| {
            t.0 as f64 / 1e3 / solvers.joint_solves.max(1) as f64
        }),
        "us",
    );
    report.metric(
        "joint.bank_nodes",
        per(solvers.bank_nodes, solvers.joint_solves),
        "count",
    );
    report.metric(
        "joint.sched_nodes",
        per(solvers.sched_nodes, solvers.joint_solves),
        "count",
    );
    report.metric(
        "joint.nogood_hits",
        per(solvers.nogood_hits, solvers.joint_solves),
        "count",
    );
    report.metric(
        "joint.closed_frac",
        frac(solvers.joint_closed, solvers.joint_solves),
        "ratio",
    );
    report.metric(
        "exact.solve_us",
        totals.get("exact.solve").map_or(0.0, |t| {
            t.0 as f64 / 1e3 / solvers.exact_solves.max(1) as f64
        }),
        "us",
    );
    report.metric(
        "exact.nodes_expanded",
        per(solvers.exact_nodes, solvers.exact_solves),
        "count",
    );
    report.metric(
        "exact.closed_frac",
        frac(solvers.exact_closed, solvers.exact_solves),
        "ratio",
    );
    report.metric("governor.sheds", d("sheds"), "count");
    report.metric("governor.rejects", d("rejects"), "count");
    report.metric(
        "governor.pool_bytes_peak",
        server(&|p| p.pool_bytes_peak),
        "bytes",
    );
    report.metric("loadgen.lag_p99_us", server(&|p| p.lag_p99_us), "us");
    report.metric(
        "loadgen.backlog_max",
        server(&|p| p.backlog_max as f64),
        "count",
    );
    report.metric("trace.overhead_per_s", traced_per_s - untraced_per_s, "1/s");

    // Self time per layer, and the spans themselves, for the reader.
    eprintln!("per-layer self time (us per item, {} items):", items.len());
    let mut by_self: Vec<(&String, &(u64, u64))> = totals.iter().collect();
    by_self.sort_by_key(|e| std::cmp::Reverse(e.1 .1));
    for (name, (incl, own)) in by_self {
        eprintln!(
            "  {name:<32} self {:>10.2}  incl {:>10.2}",
            *own as f64 / 1e3 / n,
            *incl as f64 / 1e3 / n
        );
    }
    let trace_path = opts
        .work_dir
        .join(format!("trace-{}-{}.jsonl", opts.workload, opts.seed));
    rec.write(&trace_path)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    eprintln!(
        "replayed stages account for {:.1}% of run_loop; spans in {}",
        100.0 * staged / run_loop_us.max(1e-9),
        trace_path.display()
    );
    Ok(report)
}

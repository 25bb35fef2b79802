//! `serve_cold`: every request misses every cache tier. `vliw-served`
//! starts on an empty cache and receives an open-loop stream of loops it
//! has never seen (the extended family mix, wide trip range, deduplicated
//! by semantic key) over the six paper machines; about one request in ten
//! is heavy — a `joint` or `exact` request with an explicit budget on a
//! 13–24-vreg pressure loop.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use vliw_core::{assign_banks_caps, build_rcg, LoopContext};
use vliw_loopgen::{corpus_with, pressure_corpus_with, CorpusSpec, PressureSpec};
use vliw_machine::MachineDesc;
use vliw_pipeline::{paper_machines, run_loop, schedule_with_ctx, PartitionerKind, PipelineConfig};
use vliw_serve::{parse_json, CompileRequest, Json};

use crate::loadgen::{
    calm_half, fixed_schedule, ladder, max_passing_rate, open_loop, phase_stats, Outcome, Planned,
    ROUND_US,
};
use crate::server::{compile_line, delta, fresh_dir, ServerProc};
use crate::util::{mean, median, percentile, Rng};
use crate::{Opts, Report};

/// The fixed reference rate latency is reported at, requests per second
/// (about a quarter of what the one-worker server sustains).
pub const REF_RATE: f64 = 100.0;
/// p99 limit on interactive requests for `max_rps_at_slo`.
const SLO_US: f64 = 20_000.0;
/// Explicit solver budget of every heavy request.
const HEAVY_BUDGET_MS: u64 = 5;
const HEAVY_SHARE: f64 = 0.1;
const SETUP_RUNS: usize = 9;
/// Length of one `max_rps_at_slo` ladder rung: four rounds of
/// [`crate::loadgen::ROUND_US`].
const RUNG_SECS: f64 = 2.0;
/// The reference phase is cut into this many stretches, each followed by
/// one closed-loop saturation chunk of unseen interactive requests.
const REF_SEGMENTS: usize = 10;
const SAT_CHUNK: usize = 120;
/// Share of the ladder's served answers re-checked in-process (all of the
/// reference phase's and the saturation phase's are).
const LADDER_CHECK_SHARE: f64 = 0.25;
/// Loops generated per refill of the unseen-request pools.
const CHUNK: usize = 1024;

/// Unseen requests, generated on demand from the seed and deduplicated by
/// semantic key so none can hit any cache tier.
struct Pool {
    seed: u64,
    rng: Rng,
    machines: Vec<MachineDesc>,
    seen: HashSet<String>,
    lines: Vec<String>,
    reqs: Vec<CompileRequest>,
    heavy: Vec<bool>,
    fresh: [Vec<usize>; 2],
    refills: [u64; 2],
}

impl Pool {
    fn new(seed: u64) -> Pool {
        Pool {
            seed,
            rng: Rng::new(seed ^ 0xC01D),
            machines: paper_machines(),
            seen: HashSet::new(),
            lines: Vec::new(),
            reqs: Vec::new(),
            heavy: Vec::new(),
            fresh: [Vec::new(), Vec::new()],
            refills: [0, 0],
        }
    }

    fn refill(&mut self, heavy: bool) {
        let round = self.refills[heavy as usize];
        self.refills[heavy as usize] += 1;
        let seed = self.seed.wrapping_mul(0x9E37_79B9).wrapping_add(round);
        let loops = if heavy {
            pressure_corpus_with(&PressureSpec {
                n: CHUNK / 4,
                seed,
                vreg_range: (13, 24),
                rec_density: 40,
                trip_range: (16, 400),
            })
        } else {
            corpus_with(&CorpusSpec {
                n: CHUNK,
                seed,
                trip_range: (8, 400),
                ..CorpusSpec::extended()
            })
        };
        for l in loops {
            let m = &self.machines[self.rng.below(self.machines.len())];
            let partitioner = match (heavy, self.rng.below(2)) {
                (false, _) => PartitionerKind::Greedy,
                (true, 0) => PartitionerKind::Joint {
                    budget_ms: HEAVY_BUDGET_MS,
                },
                (true, _) => PartitionerKind::Exact {
                    budget_ms: HEAVY_BUDGET_MS,
                },
            };
            let cfg = PipelineConfig {
                partitioner,
                ..PipelineConfig::default()
            };
            let req = CompileRequest::from_parts(&l, m, &cfg);
            let key = req
                .semantic_key()
                .expect("generated request is well-formed");
            if !self.seen.insert(key) {
                continue;
            }
            self.fresh[heavy as usize].push(self.lines.len());
            self.lines.push(compile_line(&req));
            self.reqs.push(req);
            self.heavy.push(heavy);
        }
        // Serve in generation order.
        self.fresh[heavy as usize].reverse();
    }

    fn take(&mut self, heavy: bool) -> usize {
        loop {
            if let Some(i) = self.fresh[heavy as usize].pop() {
                return i;
            }
            self.refill(heavy);
        }
    }

    /// A seeded open-loop plan at `rate` for `seconds`, ~10% heavy.
    fn plan(&mut self, rate: f64, seconds: f64, heavy_share: f64) -> Vec<Planned> {
        fixed_schedule(rate, seconds)
            .into_iter()
            .map(|due_us| {
                let heavy = self.rng.unit() < heavy_share;
                Planned {
                    due_us,
                    line: self.take(heavy),
                }
            })
            .collect()
    }
}

/// The compile result of a successful, freshly compiled reply.
fn compiled_result(reply: &str) -> Option<Json> {
    let doc = parse_json(reply).ok()?;
    if doc.get("ok").and_then(Json::as_bool) != Some(true)
        || doc.get("served").and_then(Json::as_str) != Some("compiled")
    {
        return None;
    }
    doc.get("result").cloned()
}

fn num(j: &Json, path: &[&str]) -> Option<f64> {
    let mut cur = j;
    for k in path {
        cur = cur.get(k)?;
    }
    cur.as_f64()
}

/// Check one served result against the program run in-process: an
/// interactive answer must equal `run_loop` on the same request; a heavy
/// answer must keep its solver's claims (joint: `lower_bound_ii ≤ ii ≤
/// greedy_ii`; exact: a cut no worse than the greedy seed's).
fn check_result(req: &CompileRequest, heavy: bool, res: &Json) -> Result<(), String> {
    let (body, machine, cfg) = req.decode().map_err(|e| e.to_string())?;
    let served_ii = num(res, &["clustered_ii"]).ok_or("no clustered_ii")?;
    if !heavy {
        let local = run_loop(&body, &machine, &cfg);
        let copies = num(res, &["n_copies"]).ok_or("no n_copies")?;
        if served_ii != local.clustered_ii as f64 || copies != local.n_copies as f64 {
            return Err(format!(
                "{}: served ii {served_ii} copies {copies}, in-process ii {} copies {}",
                body.name, local.clustered_ii, local.n_copies
            ));
        }
        return Ok(());
    }
    if let Some(ii) = num(res, &["joint", "ii"]) {
        let f = |k: &str| num(res, &["joint", k]).unwrap_or(f64::NAN);
        let (lb, greedy) = (f("lower_bound_ii"), f("greedy_ii"));
        if !(lb <= ii && ii <= greedy && ii == served_ii) {
            return Err(format!(
                "{}: joint claims lb {lb} ii {ii} greedy {greedy} served {served_ii}",
                body.name
            ));
        }
        return Ok(());
    }
    let cost = num(res, &["exact", "cost"]).ok_or("heavy reply without solver claims")?;
    let ctx =
        LoopContext::with_scheduler(&body, &machine, |p, g, s| schedule_with_ctx(&cfg, p, g, s));
    let g = build_rcg(&body, &ctx.ideal, &ctx.slack, &cfg.partition);
    let caps: Vec<usize> = machine.clusters.iter().map(|c| c.n_fus).collect();
    let seed = assign_banks_caps(&g, &caps, &cfg.partition);
    let seed_cost = vliw_exact::partition_cost(&g, &seed, 0.0);
    let ideal = num(res, &["ideal_ii"]).unwrap_or(f64::NAN);
    if !(cost <= seed_cost + 1e-9 && served_ii >= ideal) {
        return Err(format!(
            "{}: exact cost {cost} vs greedy seed {seed_cost}, ii {served_ii} ideal {ideal}",
            body.name
        ));
    }
    Ok(())
}

/// Served replies awaiting the in-process check, plus quality numbers.
struct Served {
    results: Vec<(usize, Json)>,
    rng: Rng,
}

impl Served {
    /// Collect a phase's replies, keeping a seeded `check_share` of the
    /// served answers for the in-process check. Returns the number of
    /// misses (no reply, shed, timeout, error, or a cache hit), which are
    /// failures when `misses_fail`.
    fn collect(
        &mut self,
        report: &mut Report,
        pool: &Pool,
        plan: &[Planned],
        outcomes: &[Outcome],
        misses_fail: bool,
        check_share: f64,
    ) -> usize {
        let mut misses = 0;
        for (p, o) in plan.iter().zip(outcomes) {
            report.attempted += 1;
            match o.latency_us.and_then(|_| compiled_result(&o.reply)) {
                Some(res) => {
                    if self.rng.unit() < check_share {
                        self.results.push((p.line, res));
                    }
                }
                None => {
                    misses += 1;
                    if misses_fail {
                        report.mismatch(format!(
                            "{} request {}: {}",
                            if pool.heavy[p.line] {
                                "heavy"
                            } else {
                                "interactive"
                            },
                            p.line,
                            &o.reply[..o.reply.len().min(160)]
                        ));
                    }
                }
            }
        }
        misses
    }
}

/// One closed-loop saturation chunk of unseen interactive requests:
/// compiled answers per second. Every answer is kept for the output check.
fn saturation_chunk(
    server: &mut ServerProc,
    pool: &Pool,
    chunk: &[usize],
    served: &mut Served,
    report: &mut Report,
) -> Result<f64, String> {
    let lines: Vec<&str> = chunk.iter().map(|&i| pool.lines[i].as_str()).collect();
    let t0 = Instant::now();
    let replies = server.exchange_all(&lines)?;
    let secs = t0.elapsed().as_secs_f64();
    let mut compiled = 0usize;
    for (&line, reply) in chunk.iter().zip(&replies) {
        report.attempted += 1;
        match compiled_result(reply.trim_end()) {
            Some(res) => {
                compiled += 1;
                served.results.push((line, res));
            }
            None => report.mismatch(format!(
                "saturation request {line}: {}",
                &reply[..reply.len().min(160)]
            )),
        }
    }
    Ok(compiled as f64 / secs)
}

/// p99 latency of the interactive requests among `idx`, where every
/// request of the phase that got no compiled answer (shed, timeout, error,
/// interactive or heavy) counts as an infinite latency.
fn interactive_p99_with_misses(
    pool: &Pool,
    plan: &[Planned],
    outcomes: &[Outcome],
    idx: &[usize],
) -> f64 {
    let missed = |o: &Outcome| o.latency_us.is_none() || compiled_result(&o.reply).is_none();
    let mut lats: Vec<f64> = idx
        .iter()
        .filter(|&&i| !pool.heavy[plan[i].line] && !missed(&outcomes[i]))
        .map(|&i| outcomes[i].latency_us.unwrap_or(f64::INFINITY))
        .collect();
    lats.extend(outcomes.iter().filter(|o| missed(o)).map(|_| f64::INFINITY));
    percentile(&lats, 0.99)
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let mut pool = Pool::new(opts.seed);
    let mut report = Report::default();
    let ref_secs = opts.seconds;
    // Generate the reference phase's inputs before any server starts.
    let ref_plan = pool.plan(REF_RATE, ref_secs, HEAVY_SHARE);
    let sat_chunks: Vec<Vec<usize>> = (0..REF_SEGMENTS)
        .map(|_| (0..SAT_CHUNK).map(|_| pool.take(false)).collect())
        .collect();
    // While the server runs, it and the load generator share one CPU, which
    // an idle-priority spinner keeps from going idle: on a VM an idle vCPU
    // waits for the host each time work arrives (NOTES.md, "One CPU, kept
    // awake").
    let all_cpus = crate::util::CpuSet::current()?;
    all_cpus.first().apply()?;
    let awake = crate::util::KeepAwake::start()?;

    let mut setups = Vec::new();
    let mut server = None;
    for round in 0..SETUP_RUNS {
        if let Some(s) = server.take() {
            ServerProc::shutdown(s)?;
        }
        let dir = fresh_dir(&opts.work_dir, &format!("cold-{}-{round}", opts.seed))?;
        let t0 = Instant::now();
        server = Some(ServerProc::start(&opts.server_bin, &dir)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut server = server.expect("at least one set-up");
    let mut served = Served {
        results: Vec::new(),
        rng: Rng::new(opts.seed ^ 0xC4EC),
    };
    let drain = Duration::from_secs(10);

    if opts.trace {
        let lines = pool.lines.clone();
        let phase = crate::trace::serve_phase(&mut server, &lines, &ref_plan)?;
        served.collect(&mut report, &pool, &phase.plan, &phase.outcomes, true, 1.0);
        server.shutdown()?;
        drop(awake);
        all_cpus.apply()?;
        let items: Vec<crate::trace::Item> = ref_plan
            .iter()
            .map(|p| {
                let (body, machine, cfg) = pool.reqs[p.line]
                    .decode()
                    .expect("generated request decodes");
                crate::trace::Item { body, machine, cfg }
            })
            .collect();
        let mut traced = crate::trace::run(opts, &items, Some(&phase))?;
        traced.attempted += report.attempted;
        traced.failed += report.failed;
        traced.problems.extend(report.problems);
        return Ok(traced);
    }

    // The reference phase runs in REF_SEGMENTS stretches, each followed by
    // one closed-loop saturation chunk, so both figures sample the host
    // over the whole phase rather than over one stretch of it.
    let before = server.stats()?;
    let seg_us = (ref_secs * 1e6 / REF_SEGMENTS as f64) as u64;
    let mut outcomes = Vec::with_capacity(ref_plan.len());
    let mut chunk_rates = Vec::new();
    let mut start = 0;
    for (k, sat) in sat_chunks.iter().enumerate() {
        let base = k as u64 * seg_us;
        let end = if k + 1 == REF_SEGMENTS {
            ref_plan.len()
        } else {
            ref_plan.partition_point(|p| p.due_us < base + seg_us)
        };
        let segment: Vec<Planned> = ref_plan[start..end]
            .iter()
            .map(|p| Planned {
                due_us: p.due_us - base,
                line: p.line,
            })
            .collect();
        outcomes.extend(open_loop(&server.conns, &pool.lines, &segment, drain)?);
        start = end;
        chunk_rates.push(saturation_chunk(
            &mut server,
            &pool,
            sat,
            &mut served,
            &mut report,
        )?);
    }
    let after = server.stats()?;
    served.collect(&mut report, &pool, &ref_plan, &outcomes, true, 1.0);
    let hits = delta(&before, &after, "hits");
    if hits != 0.0 {
        report.invalid(format!("cold phase got {hits} cache hits (expected 0)"));
    }
    // Latencies over the better-running half of the phase (NOTES.md,
    // "Rounds and the better-running half"); a request without a reply in
    // time counts as infinitely late (and has failed the run above).
    let calm = calm_half(&ref_plan, &outcomes);
    let latencies = |heavy: bool| -> Vec<f64> {
        calm.iter()
            .filter(|&&i| pool.heavy[ref_plan[i].line] == heavy)
            .map(|&i| outcomes[i].latency_us.unwrap_or(f64::INFINITY))
            .collect()
    };
    let (interactive, heavy) = (latencies(false), latencies(true));
    let p50 = percentile(&interactive, 0.5);
    let p99 = percentile(&interactive, 0.99);
    let heavy_p99 = percentile(&heavy, 0.99);
    let rss = server.peak_rss_mb();
    let n_heavy = ref_plan.iter().filter(|p| pool.heavy[p.line]).count();
    let st = phase_stats(&ref_plan, &outcomes);
    eprintln!(
        "serve_cold: {} requests ({} heavy) at {REF_RATE}/s, lag p99 {:.0}us, backlog max {}; \
         latency over the better-running half: {} interactive, {} heavy",
        ref_plan.len(),
        n_heavy,
        st.lag_p99_us,
        st.backlog_max,
        interactive.len(),
        heavy.len()
    );
    let throughput = median(&chunk_rates);

    // Ladder over unseen requests with the same heavy share.
    let rungs = ladder(REF_RATE, 10_000.0);
    let mut ladder_err = None;
    let max_rps = max_passing_rate(&rungs, 0, |rate| {
        if ladder_err.is_some() {
            return false;
        }
        let plan = pool.plan(rate, RUNG_SECS, HEAVY_SHARE);
        let outcomes = match open_loop(&server.conns, &pool.lines, &plan, Duration::from_secs(3)) {
            Ok(o) => o,
            Err(e) => {
                ladder_err = Some(e);
                return false;
            }
        };
        served.collect(
            &mut report,
            &pool,
            &plan,
            &outcomes,
            false,
            LADDER_CHECK_SHARE,
        );
        let st = phase_stats(&plan, &outcomes);
        // Judged after its first round, in which the queue builds up.
        let judged: Vec<usize> = (0..plan.len())
            .filter(|&i| plan[i].due_us >= ROUND_US)
            .collect();
        interactive_p99_with_misses(&pool, &plan, &outcomes, &judged) <= SLO_US
            && st.backlog_end as f64 <= 2.0 + rate * SLO_US / 1e6
    });
    if let Some(e) = ladder_err {
        return Err(e);
    }
    server.shutdown()?;
    drop(awake);
    all_cpus.apply()?;

    // Output check: every served answer against the program in-process,
    // split over this thread and one more (the server has stopped).
    let t0 = Instant::now();
    let check = |part: &[(usize, Json)]| -> Vec<String> {
        part.iter()
            .filter_map(|(line, res)| check_result(&pool.reqs[*line], pool.heavy[*line], res).err())
            .collect()
    };
    let (first, second) = served.results.split_at(served.results.len() / 2);
    let errors = std::thread::scope(|scope| {
        let other = scope.spawn(|| check(second));
        let mut errors = check(first);
        errors.extend(other.join().expect("check thread panicked"));
        errors
    });
    for e in errors {
        report.mismatch(e);
    }
    eprintln!(
        "serve_cold: checked {} served answers in {:.1}s",
        served.results.len(),
        t0.elapsed().as_secs_f64()
    );

    // Quality over every served answer the run checked.
    let field = |k: &str| -> Vec<f64> {
        served
            .results
            .iter()
            .map(|(_, r)| num(r, &[k]).unwrap_or(0.0))
            .collect()
    };
    let (norm, copies) = (field("normalized"), field("n_copies"));
    report.metric("setup_s", median(&setups), "s");
    report.metric("throughput_per_s", throughput, "1/s");
    report.metric("latency_p50_us", p50, "us");
    report.metric("latency_p99_us", p99, "us");
    report.metric("max_rps_at_slo", max_rps, "1/s");
    report.metric("heavy_p99_ms", heavy_p99 / 1e3, "ms");
    report.metric("normalized_ii_mean", mean(&norm), "%");
    report.metric("kernel_copies_mean", mean(&copies), "count");
    report.metric("peak_rss_mb", rss, "MiB");
    Ok(report)
}

//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--table1] [--table2] [--fig5] [--fig6] [--fig7]
//!       [--example] [--ablation] [--gap] [--joint-gap] [--latency-sweep]
//!       [--all]
//!       [--loops N]   # truncate the corpus for a quick run
//!       [--partitioner greedy|exact|joint]  # table/figure sweeps' partitioner
//!       [--budget-ms N]               # exact/joint search budget (default 2000)
//!       [--max-regs N]                # vreg ceiling of the --gap/--joint-gap slice (default 12)
//!       [--cache] [--cache-dir PATH]
//! ```
//!
//! `--csv PATH` additionally writes per-loop rows for every paper machine
//! model to PATH. With no flags, `--all` is assumed.
//!
//! `--gap` prints the optimality-gap table: on the ≤12-register slice of
//! the corpus, the greedy partition is compared against the `vliw-exact`
//! branch-and-bound optimum — RCG objective and full-pipeline II/copies —
//! per paper machine model. The trailing `all_optimal=…` /
//! `exact<=greedy=…` line is what `ci.sh`'s gap smoke asserts on.
//!
//! `--joint-gap` prints the joint (II, slot, bank) solver table: on the same
//! ≤12-register slice (`--max-regs` raises the ceiling), the greedy
//! partition + IMS pipeline is compared against `vliw-joint`'s
//! branch-and-bound over complete bank assignments × exhaustive modulo
//! schedules, per paper machine model. The trailing `all_closed=…` /
//! `joint_ii<=greedy_ii=…` line is what `ci.sh`'s joint smoke asserts on.
//! A second *scaling* table follows: the 13–24-vreg pressure slice (the
//! corpus draws in that range plus `vliw-loopgen`'s pressure family) under
//! a 500 ms interactive budget, with every solve classified as closed /
//! bounded (ladder certified rungs beyond the analytic floor) /
//! budget-exceeded.
//!
//! `--cache` routes every per-loop compile of the table/figure sweeps
//! through a process-local content-addressed cache (in-memory LRU over
//! `--cache-dir`, default `target/vliw-cache/`), so a re-run of the same
//! corpus is served from disk. The ablation/scheduler/latency sweeps vary
//! configurations per row and keep their direct path.

use std::sync::Arc;
use vliw_ir::Loop;
use vliw_machine::MachineDesc;
use vliw_pipeline::{
    ablation, fig_histogram_with, latency_sweep, paper_example, render_ablation,
    render_scheduler_compare, scheduler_compare, table1_with, table2_with, LoopResult, LoopRunner,
    PipelineConfig,
};
use vliw_serve::{CachedCompiler, CompileRequest, DiskStore, TieredCache};

/// Routes compiles through the content-addressed cache.
struct CachedRunner(Arc<CachedCompiler>);

impl LoopRunner for CachedRunner {
    fn run(&self, body: &Loop, machine: &MachineDesc, cfg: &PipelineConfig) -> LoopResult {
        match self
            .0
            .compile(&CompileRequest::from_parts(body, machine, cfg), None)
        {
            Ok((res, _)) => res.to_loop_result(),
            Err(e) => panic!("cached compile of {} failed: {e}", body.name),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |f: &str| args.iter().any(|a| a == f);
    let all = args.is_empty() || has("--all");

    let mut n_loops = vliw_loopgen::CORPUS_SIZE;
    if let Some(pos) = args.iter().position(|a| a == "--loops") {
        n_loops = args
            .get(pos + 1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(n_loops);
    }
    let mut corpus = vliw_loopgen::corpus();
    corpus.truncate(n_loops);

    let budget_ms: u64 = args
        .iter()
        .position(|a| a == "--budget-ms")
        .and_then(|pos| args.get(pos + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(2000);
    let max_regs: usize = args
        .iter()
        .position(|a| a == "--max-regs")
        .and_then(|pos| args.get(pos + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);
    let mut cfg = PipelineConfig::default();
    if let Some(pos) = args.iter().position(|a| a == "--partitioner") {
        cfg.partitioner = match args.get(pos + 1).map(String::as_str) {
            Some("greedy") | None => vliw_pipeline::PartitionerKind::Greedy,
            Some("exact") => vliw_pipeline::PartitionerKind::Exact { budget_ms },
            Some("joint") => vliw_pipeline::PartitionerKind::Joint { budget_ms },
            Some(other) => panic!("--partitioner expects greedy|exact|joint, got `{other}`"),
        };
    }

    let engine = if has("--cache") {
        let root = args
            .iter()
            .position(|a| a == "--cache-dir")
            .and_then(|pos| args.get(pos + 1))
            .map(|p| DiskStore::new(p.clone()))
            .unwrap_or_else(|| DiskStore::new(DiskStore::default_root()));
        Some(CachedCompiler::new(TieredCache::new(8192, Some(root))))
    } else {
        None
    };
    let cached_runner = engine.as_ref().map(|e| CachedRunner(Arc::clone(e)));
    let direct: fn(&Loop, &MachineDesc, &PipelineConfig) -> LoopResult = vliw_pipeline::run_loop;
    let runner: &dyn LoopRunner = match &cached_runner {
        Some(r) => r,
        None => &direct,
    };

    println!(
        "rcg-vliw reproduction — {} loops, 16-wide machines, paper latencies{}\n",
        corpus.len(),
        if engine.is_some() { ", cached" } else { "" }
    );

    if let Some(pos) = args.iter().position(|a| a == "--csv") {
        let path = args
            .get(pos + 1)
            .cloned()
            .unwrap_or_else(|| "repro.csv".into());
        let mut out = String::from(
            "machine,loop,ops,ideal_ii,clustered_ii,copies,hoisted,normalized,ideal_ipc,clustered_ipc,mve_unroll,fp_pressure,spills\n",
        );
        let machines = vliw_pipeline::paper_machines();
        let grid = vliw_pipeline::run_corpus_grid_with(&corpus, &machines, &cfg, runner);
        for (m, rows) in machines.iter().zip(grid) {
            for r in rows {
                out.push_str(&format!(
                    "{},{},{},{},{},{},{},{:.2},{:.3},{:.3},{},{},{}\n",
                    m.name,
                    r.name,
                    r.n_ops,
                    r.ideal_ii,
                    r.clustered_ii,
                    r.n_copies,
                    r.n_hoisted,
                    r.normalized,
                    r.ideal_ipc,
                    r.clustered_ipc,
                    r.mve_unroll,
                    r.peak_float_pressure,
                    r.spills
                ));
            }
        }
        std::fs::write(&path, out).expect("write csv");
        println!("per-loop results written to {path}\n");
    }
    if all || has("--example") {
        let ex = paper_example();
        println!("Figures 1-3: the xpos worked example (2 FUs, unit latency)");
        println!(
            "  ideal schedule      : {} cycles (paper: 7)",
            ex.ideal_span
        );
        println!(
            "  2-bank partitioned  : {} cycles, {} copies (paper: 9 cycles, 2 copies)\n",
            ex.clustered_span, ex.n_copies
        );
    }
    if all || has("--table1") {
        println!("{}", table1_with(&corpus, &cfg, runner).render());
        println!("  (paper: Ideal 8.6; Clustered 9.3/6.2, 8.4/7.5, 6.9/6.8)\n");
    }
    if all || has("--table2") {
        println!("{}", table2_with(&corpus, &cfg, runner).render());
        println!("  (paper: arith 111/150, 126/122, 162/133; harm 109/127, 119/115, 138/124)\n");
    }
    for (flag, n, paper_zero) in [
        ("--fig5", 2usize, 60.0),
        ("--fig6", 4, 50.0),
        ("--fig7", 8, 40.0),
    ] {
        if all || has(flag) {
            let f = fig_histogram_with(&corpus, n, &cfg, runner);
            println!("{}", f.render());
            println!(
                "  zero-degradation: {:.1}% embedded / {:.1}% copy-unit (paper: ~{}%)\n",
                f.embedded.percent_undegraded(),
                f.copy_unit.percent_undegraded(),
                paper_zero
            );
        }
    }
    if all || has("--ablation") {
        let rows = ablation(&corpus, &MachineDesc::embedded(4, 4));
        println!(
            "{}",
            render_ablation(&rows, "Ablation A: partitioners on 4x4 embedded")
        );
        println!();
    }
    if all || has("--gap") {
        let table = vliw_pipeline::gap_table_with(
            &corpus,
            &vliw_pipeline::paper_machines(),
            budget_ms,
            max_regs,
            runner,
        );
        println!("{}", table.render());
        println!();
    }
    if all || has("--joint-gap") {
        let table = vliw_pipeline::joint_gap_table_with(
            &corpus,
            &vliw_pipeline::paper_machines(),
            budget_ms,
            max_regs,
        );
        println!("{}", table.render());
        println!();
        // The scaling slice: 13–24-vreg loops (corpus draws in range plus
        // the pressure family) under an interactive 500 ms budget.
        let mut slice = corpus.clone();
        slice.extend(vliw_loopgen::pressure_corpus());
        let scaling = vliw_pipeline::joint_scaling_table_with(
            &slice,
            &vliw_pipeline::paper_machines(),
            500,
            13,
            24,
        );
        println!("{}", scaling.render());
        println!();
    }
    if all || has("--schedulers") {
        let rows = scheduler_compare(&corpus, &MachineDesc::embedded(4, 4));
        println!(
            "{}",
            render_scheduler_compare(
                &rows,
                "Scheduler comparison (§6.3): Rau IMS vs Llosa swing, 4x4 embedded"
            )
        );
        println!();
    }
    if all || has("--whole-programs") {
        let (arith, harm, copies) = vliw_pipeline::whole_programs(40);
        println!("Whole programs ([16]'s experiment): 40 functions on a 4-wide machine, 4 partitions of 1 FU");
        println!(
            "  weighted degradation: arith {:.0}, harm {:.0} (companion study: ~111); total copies {}\n",
            arith, harm, copies
        );
    }
    if all || has("--latency-sweep") {
        let rows = latency_sweep(&corpus, 4);
        println!(
            "{}",
            render_ablation(&rows, "Ablation B: copy latency on 4-cluster machines")
        );
    }
    if let Some(engine) = &engine {
        let snap = engine.stats().snapshot();
        println!(
            "cache: hits={} (mem={} disk={}) misses={} compiles={} evictions={}",
            snap.hits(),
            snap.mem_hits,
            snap.disk_hits,
            snap.misses,
            snap.compiles,
            engine.evictions()
        );
    }
}

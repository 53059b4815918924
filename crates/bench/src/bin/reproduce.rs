//! Runs every table and figure reproduction in sequence, printing the
//! paper-style output of each. `BRANCHNET_SCALE=full` selects the
//! thorough profile; the default `quick` profile finishes in tens of
//! minutes on a laptop core.
//!
//! With `--json <dir>`, additionally writes one machine-readable
//! artifact per experiment plus a top-level `manifest.json` (see
//! `branchnet_bench::report`); `fidelity_gate` diffs such a directory
//! against the golden baselines in `baselines/quick/`.

use branchnet_bench::cache::ArtifactCache;
use branchnet_bench::experiments::*;
use branchnet_bench::metrics;
use branchnet_bench::report::{
    self, ExperimentData, ExperimentReport, GauntletUsage, RunManifest, SectionTime,
};
use branchnet_bench::Scale;
use branchnet_core::parallel::thread_count;
use branchnet_tage::TageSclConfig;
use branchnet_workloads::spec::Benchmark;
use std::path::PathBuf;

/// Writes one experiment artifact when `--json` is active.
fn emit(json_dir: Option<&PathBuf>, artifacts: &mut Vec<String>, name: &str, data: ExperimentData) {
    if let Some(dir) = json_dir {
        let exp = ExperimentReport::new(name, data);
        report::write_artifact(dir, &exp)
            .unwrap_or_else(|e| panic!("writing {name} artifact: {e}"));
        artifacts.push(exp.file_name());
    }
}

fn main() {
    let scale = Scale::from_env();
    let json_dir = report::json_dir_from_cli("reproduce");
    println!(
        "scale: {} | threads: {} (BRANCHNET_THREADS to override)",
        if scale.is_full() { "full" } else { "quick" },
        thread_count()
    );
    // The CNN-training figures cover all ten benchmarks at
    // BRANCHNET_SCALE=full; the quick profile runs them on the six
    // benchmarks that carry the paper's story (the four BranchNet
    // winners plus the two instructive failures, gcc and omnetpp) —
    // the easy four contribute near-zero MPKI and near-zero deltas.
    let full = scale.is_full();
    let cnn_benches: Vec<Benchmark> = if full {
        Benchmark::all().to_vec()
    } else {
        vec![
            Benchmark::Leela,
            Benchmark::Mcf,
            Benchmark::Deepsjeng,
            Benchmark::Xz,
            Benchmark::Gcc,
            Benchmark::Omnetpp,
        ]
    };
    let t0 = std::time::Instant::now();
    let mut last = std::time::Instant::now();
    let mut last_gauntlet = metrics::snapshot();
    let mut section_times: Vec<SectionTime> = Vec::new();
    let mut section = |name: &str| {
        // Credit the elapsed interval (and the gauntlet passes that ran
        // during it) to the section that just ended.
        let now_gauntlet = metrics::snapshot();
        if let Some(prev) = section_times.last_mut() {
            prev.seconds = last.elapsed().as_secs_f64();
            prev.gauntlet = GauntletUsage::from_delta(&now_gauntlet.since(&last_gauntlet));
        }
        last = std::time::Instant::now();
        last_gauntlet = now_gauntlet;
        section_times.push(SectionTime { name: name.to_string(), seconds: 0.0, gauntlet: None });
        println!("\n=== {name} [{:.0}s] ===", t0.elapsed().as_secs_f64());
    };
    let mut artifacts: Vec<String> = Vec::new();

    section("Table I");
    let table1 = tables::table1();
    print!("{table1}");
    emit(json_dir.as_ref(), &mut artifacts, "table1", ExperimentData::Text(table1));
    section("Table II");
    let table2 = tables::table2();
    print!("{table2}");
    emit(json_dir.as_ref(), &mut artifacts, "table2", ExperimentData::Text(table2));
    section("Table III");
    let table3 = tables::table3();
    print!("{table3}");
    emit(json_dir.as_ref(), &mut artifacts, "table3", ExperimentData::Text(table3));

    section("Fig. 1");
    let fig01_rows = fig01_headroom::run(&scale);
    print!("{}", fig01_headroom::render(&fig01_rows));
    emit(json_dir.as_ref(), &mut artifacts, "fig01", ExperimentData::Fig01(fig01_rows));

    section("Fig. 4");
    let fig04_points = fig04_motivating::run(&scale);
    print!("{}", fig04_motivating::render(&fig04_points));
    emit(json_dir.as_ref(), &mut artifacts, "fig04", ExperimentData::Fig04(fig04_points));

    section("Fig. 9");
    let fig09_rows = fig09_headroom_mpki::run(&scale, &cnn_benches);
    print!("{}", fig09_headroom_mpki::render(&fig09_rows));
    emit(json_dir.as_ref(), &mut artifacts, "fig09", ExperimentData::Fig09(fig09_rows));

    section("Fig. 10");
    let mut fig10_results = Vec::new();
    for bench in if full { vec![Benchmark::Leela, Benchmark::Mcf] } else { vec![Benchmark::Leela] }
    {
        let result = fig10_branch_accuracy::run(&scale, bench, 16);
        print!("{}", fig10_branch_accuracy::render(&result));
        fig10_results.push(result);
    }
    emit(json_dir.as_ref(), &mut artifacts, "fig10", ExperimentData::Fig10(fig10_results));

    section("Fig. 11");
    let fig11_rows = fig11_practical::run(&scale, &cnn_benches);
    print!("{}", fig11_practical::render(&fig11_rows));
    emit(json_dir.as_ref(), &mut artifacts, "fig11", ExperimentData::Fig11(fig11_rows));

    section("Fig. 12");
    let fig12_benches =
        if full { vec![Benchmark::Leela, Benchmark::Xz] } else { vec![Benchmark::Xz] };
    let mut fig12_sweeps = Vec::new();
    for bench in fig12_benches {
        let points = fig12_trainset::run(&scale, bench);
        print!("{}", fig12_trainset::render(bench, &points));
        fig12_sweeps.push(fig12_trainset::Fig12Sweep { bench, points });
    }
    emit(json_dir.as_ref(), &mut artifacts, "fig12", ExperimentData::Fig12(fig12_sweeps));

    section("Fig. 13");
    let fig13_benches: Vec<Benchmark> = if full {
        vec![Benchmark::Leela, Benchmark::Mcf, Benchmark::Deepsjeng, Benchmark::Xz]
    } else {
        vec![Benchmark::Leela, Benchmark::Xz]
    };
    let fig13_points = fig13_budget::run(&scale, &fig13_benches, &[8, 16, 32, 64]);
    print!("{}", fig13_budget::render(&fig13_points));
    emit(json_dir.as_ref(), &mut artifacts, "fig13", ExperimentData::Fig13(fig13_points));

    section("Table IV");
    let t4_bench = Benchmark::Leela;
    let rows = tables::table4(&scale, t4_bench);
    print!("{}", tables::render_table4(t4_bench, &rows));
    emit(
        json_dir.as_ref(),
        &mut artifacts,
        "table4",
        ExperimentData::Table4(tables::Table4Report { bench: t4_bench, rows }),
    );

    // Pack compositions at the iso-latency budget. Fig. 11 already
    // trained every model of these menus, so this section only fetches
    // them from the store, scores them and solves the knapsack.
    section("Mini packs");
    let pack_baseline = TageSclConfig::tage_sc_l_64kb().without_sc_local();
    let budget = 32 * 1024;
    let packs: Vec<mini_pack::MiniPackReport> = cnn_benches
        .iter()
        .map(|&bench| {
            let pack = mini_pack::build_mini_pack(bench, &pack_baseline, &scale, budget);
            mini_pack::MiniPackReport::from_pack(bench, budget, &pack)
        })
        .collect();
    print!("{}", mini_pack::render_packs(&packs));
    emit(json_dir.as_ref(), &mut artifacts, "mini_pack", ExperimentData::MiniPack(packs));

    section("Targets");
    let target_rows = target_mpki::run(&scale);
    print!("{}", target_mpki::render(&target_rows));
    emit(json_dir.as_ref(), &mut artifacts, "target_mpki", ExperimentData::TargetMpki(target_rows));

    if let Some(prev) = section_times.last_mut() {
        prev.seconds = last.elapsed().as_secs_f64();
        prev.gauntlet = GauntletUsage::from_delta(&metrics::snapshot().since(&last_gauntlet));
    }
    println!("\n=== Summary ===");
    for s in &section_times {
        match &s.gauntlet {
            Some(g) => println!(
                "{:<10} {:>7.1}s  [gauntlet: {} passes carrying {} lane-walks, {}ms]",
                s.name, s.seconds, g.passes, g.lanes, g.millis
            ),
            None => println!("{:<10} {:>7.1}s", s.name, s.seconds),
        }
    }
    println!("cache: {}", ArtifactCache::global().stats().summary());
    let tf = metrics::trace_format_snapshot();
    if tf.traces > 0 {
        println!(
            "trace format: v2 columnar, {} traces, {} records, {} sites, {} blocks, {:.3} B/record",
            tf.traces,
            tf.records,
            tf.sites,
            tf.blocks,
            tf.bytes_per_record()
        );
    }
    println!("degradation: {}", branchnet_core::degradation::snapshot().summary());

    if let Some(dir) = json_dir.as_ref() {
        let mut manifest = RunManifest::new(&scale, thread_count());
        manifest.artifacts = artifacts;
        manifest.sections = section_times;
        manifest.cache = ArtifactCache::global().stats();
        manifest.degradation = branchnet_core::degradation::snapshot();
        manifest.trace_format = (tf.traces > 0).then_some(tf);
        std::fs::create_dir_all(dir).expect("creating --json directory");
        std::fs::write(dir.join(report::MANIFEST_FILE), {
            use branchnet_bench::json::ToJson;
            manifest.to_json().render()
        })
        .expect("writing manifest.json");
        println!("json report: {}", dir.display());
    }

    println!("\nDone in {:.0}s.", t0.elapsed().as_secs_f64());
}

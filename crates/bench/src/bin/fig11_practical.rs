//! Regenerates Fig. 11 (practical Mini-BranchNet settings: MPKI and
//! IPC improvements over 64 KB TAGE-SC-L) over all ten benchmarks.
//! `--json <dir>` also writes the machine-readable report.

use branchnet_bench::experiments::fig11_practical;
use branchnet_bench::report::{self, ExperimentData};
use branchnet_bench::Scale;
use branchnet_workloads::spec::Benchmark;

fn main() {
    let scale = Scale::from_env();
    let json_dir = report::json_dir_from_cli("fig11_practical");
    let t0 = std::time::Instant::now();
    let (rows, _) = fig11_practical::run(&scale, &Benchmark::all());
    print!("{}", fig11_practical::render(&rows));
    if let Some(dir) = json_dir {
        let data = ExperimentData::Fig11(rows);
        report::write_single_run(&dir, &scale, "fig11", data, t0.elapsed().as_secs_f64())
            .expect("writing json report");
    }
}

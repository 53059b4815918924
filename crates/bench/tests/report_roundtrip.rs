//! Round-trip guarantees of the report layer: every experiment
//! serializes to JSON and parses back equal, and a whole `--json` run
//! directory reads back as the `RunReport` that wrote it. Lossless
//! round-trips are what let the fidelity gate and the determinism CI
//! job treat the artifacts as the experiments themselves.

use branchnet_bench::cache::CacheStats;
use branchnet_bench::experiments::fig01_headroom::Fig01Row;
use branchnet_bench::experiments::fig04_motivating::Fig04Point;
use branchnet_bench::experiments::fig09_headroom_mpki::Fig09Row;
use branchnet_bench::experiments::fig10_branch_accuracy::{Fig10Result, Fig10Row};
use branchnet_bench::experiments::fig11_practical::{Fig11Row, Setting};
use branchnet_bench::experiments::fig12_trainset::{Fig12Point, Fig12Sweep};
use branchnet_bench::experiments::fig13_budget::{Fig13Point, MINI_PACK_LANE};
use branchnet_bench::experiments::mini_pack::MiniPackReport;
use branchnet_bench::experiments::tables::{Table4Report, Table4Row};
use branchnet_bench::json::{FromJson, Json, ToJson};
use branchnet_bench::report::{
    ExperimentData, ExperimentReport, GauntletUsage, RunManifest, RunReport, SectionTime,
    SCHEMA_VERSION,
};
use branchnet_bench::Scale;
use branchnet_core::degradation::DegradationSnapshot;
use branchnet_workloads::spec::Benchmark;

/// Synthetic data for every `ExperimentData` variant, with awkward
/// values on purpose: full-precision floats, PCs above 2^53 (exact in
/// hex, corrupted by a naive f64 number), and multi-line text.
fn all_variants() -> Vec<ExperimentData> {
    vec![
        ExperimentData::Text("Table I — knobs\nrow two\n".to_string()),
        ExperimentData::Fig01(vec![
            Fig01Row {
                bench: Benchmark::Leela,
                mpki: 5.123456789012345,
                top8: 2.5,
                top25: 3.25,
                top50: 4.0,
            },
            Fig01Row { bench: Benchmark::Xz, mpki: 0.1, top8: 0.05, top25: 0.075, top50: 0.0875 },
        ]),
        ExperimentData::Fig04(vec![Fig04Point {
            alpha: 0.75,
            tage: 0.87654321,
            cnn: [0.91, 0.92, 0.9999999999999999],
        }]),
        ExperimentData::Fig09(vec![Fig09Row {
            bench: Benchmark::Mcf,
            tage_sc_l_64kb: 10.5,
            mtage_sc: 9.25,
            mtage_plus_big: 7.125,
            gtage_only: 11.0,
            no_sc_local: 9.75,
            improved_branches: 17,
        }]),
        ExperimentData::Fig10(vec![Fig10Result {
            bench: Benchmark::Leela,
            rows: vec![Fig10Row {
                pc: (1u64 << 53) + 1,
                mtage_accuracy: 0.875,
                branchnet_accuracy: 0.9375,
                occurrences: 12345.0,
            }],
        }]),
        ExperimentData::Fig11(vec![Fig11Row {
            bench: Benchmark::Deepsjeng,
            base: Setting { mpki: 4.5, ipc: 1.25 },
            iso_storage: Setting { mpki: 4.25, ipc: 1.27 },
            iso_latency: Setting { mpki: 4.0, ipc: 1.3 },
            big: Setting { mpki: 3.5, ipc: 1.35 },
            tarsa_float: Setting { mpki: 4.125, ipc: 1.28 },
            tarsa_ternary: Setting { mpki: 4.375, ipc: 1.26 },
        }]),
        ExperimentData::Fig12(vec![Fig12Sweep {
            bench: Benchmark::Xz,
            points: vec![
                Fig12Point { examples: 200, mpki_reduction_pct: 3.5 },
                Fig12Point { examples: 1600, mpki_reduction_pct: 8.25 },
            ],
        }]),
        ExperimentData::Fig13(vec![
            Fig13Point {
                bench: Benchmark::Leela,
                lane: MINI_PACK_LANE,
                budget_kb: 32,
                mpki_reduction_pct: 12.345678901234567,
                models: 9,
            },
            Fig13Point {
                bench: Benchmark::Leela,
                lane: "o-gehl",
                budget_kb: 16,
                mpki_reduction_pct: -4.5,
                models: 0,
            },
        ]),
        ExperimentData::Table4(Table4Report {
            bench: Benchmark::Leela,
            rows: vec![
                Table4Row {
                    label: "Big-BranchNet: no branch capacity limit".to_string(),
                    mpki_reduction_pct: 35.8,
                },
                Table4Row {
                    label: "Mini-BranchNet: fully-quantized".to_string(),
                    mpki_reduction_pct: 15.7,
                },
            ],
        }),
        ExperimentData::MiniPack(vec![MiniPackReport {
            bench: Benchmark::Omnetpp,
            budget_bytes: 32 * 1024,
            total_bytes: 30_000,
            model_pcs: vec![0x4000_1234, u64::MAX, (1u64 << 60) | 3],
        }]),
    ]
}

#[test]
fn every_variant_round_trips_through_json_text() {
    for data in all_variants() {
        let report = ExperimentReport::new(data.kind(), data);
        let rendered = report.to_json().render();
        let parsed = ExperimentReport::from_json(&Json::parse(&rendered).expect("parse"))
            .expect("deserialize");
        assert_eq!(report, parsed, "round-trip changed {}", report.name);
        // Render → parse → render is a fixed point, the property the
        // byte-for-byte determinism and staleness checks lean on.
        assert_eq!(rendered, parsed.to_json().render());
    }
}

#[test]
fn every_variant_survives_metric_flattening() {
    for data in all_variants() {
        let metrics = data.metrics();
        assert!(!metrics.is_empty(), "{} flattened to nothing", data.kind());
    }
}

/// Manifests written before the per-section gauntlet counters existed
/// (the checked-in golden baselines) must still parse.
#[test]
fn section_time_without_gauntlet_field_still_parses() {
    let json = Json::parse(r#"{"name": "Fig. 9", "seconds": 12.5}"#).expect("parse");
    let section = SectionTime::from_json(&json).expect("deserialize");
    assert_eq!(section.name, "Fig. 9");
    assert_eq!(section.gauntlet, None);
}

#[test]
fn run_report_round_trips_through_a_directory() {
    let experiments: Vec<ExperimentReport> =
        all_variants().into_iter().map(|data| ExperimentReport::new(data.kind(), data)).collect();
    let mut manifest = RunManifest::new(&Scale::quick(), 3);
    manifest.artifacts = experiments.iter().map(ExperimentReport::file_name).collect();
    manifest.sections = vec![
        SectionTime {
            name: "Fig. 9".to_string(),
            seconds: 12.5,
            gauntlet: Some(GauntletUsage { passes: 6, lanes: 30, millis: 417 }),
        },
        SectionTime { name: "Table IV".to_string(), seconds: 3.25, gauntlet: None },
    ];
    let run = RunReport { manifest, experiments };

    let dir = std::env::temp_dir().join(format!("branchnet-roundtrip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    run.write(&dir).expect("write run");
    let read = RunReport::read(&dir).expect("read run");
    assert_eq!(run, read);
    assert_eq!(read.manifest.schema_version, SCHEMA_VERSION);

    // An unlisted artifact is corruption, not data.
    std::fs::write(dir.join("stray.json"), "{}").expect("write stray");
    let err = RunReport::read(&dir).expect_err("stray artifact must be rejected");
    assert!(err.contains("stray.json"), "{err}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Manifests written before the cache became a plain compute-once
/// memo carry counters that no longer exist: rejected model packs and
/// isolated serve sessions in the degradation block; an eviction count,
/// and in older runs whole-pack and menu counters instead of model
/// counters, in the cache block. They must still parse, those keys
/// ignored.
#[test]
fn a_manifest_with_retired_counters_still_parses() {
    let json = Json::parse(
        r#"{"schema_version": 3, "scale": "quick", "threads": 2,
            "artifacts": ["fig09.json"],
            "sections": [{"name": "Fig. 9", "seconds": 92.5}],
            "cache": {"trace_hits": 58, "trace_misses": 10, "pack_hits": 2, "pack_misses": 23,
                      "menu_hits": 8, "menu_misses": 18, "evictions": 0},
            "degradation": {"packs_rejected": 2, "trainings_retried": 1,
                            "sessions_isolated": 0}}"#,
    )
    .expect("parse");
    let manifest = RunManifest::from_json(&json).expect("deserialize");
    assert_eq!(
        manifest.cache,
        CacheStats { trace_hits: 58, trace_misses: 10, model_hits: 0, model_misses: 0 }
    );
    assert_eq!(manifest.degradation, DegradationSnapshot { trainings_retried: 1 });
    assert_eq!(manifest.artifacts, ["fig09.json"]);
    assert_eq!(manifest.trace_format, None);
}

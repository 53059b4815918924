//! Machine-readable experiment reports.
//!
//! Every experiment in [`crate::experiments`] converts losslessly into
//! a versioned JSON artifact; a run of `reproduce --json <dir>` (or
//! any `fig*`/`table*` binary with `--json <dir>`) writes one artifact
//! per experiment plus a top-level `manifest.json` carrying the run's
//! provenance: scale, thread count, per-section wall-clock (with
//! per-section gauntlet pass/lane counters, see [`crate::metrics`]),
//! and [`ArtifactCache`](crate::cache::ArtifactCache) hit/miss
//! counters.
//!
//! The experiment artifacts are **deterministic** — identical at any
//! `BRANCHNET_THREADS` (PR 1's ordered-merge guarantee) — so they can
//! be diffed byte-for-byte. `manifest.json` is the *only* artifact
//! with nondeterministic fields (wall-clock, thread count); the
//! determinism CI job and the baseline-staleness check exclude it.
//!
//! `fidelity_gate` consumes these artifacts: see [`crate::gate`] for
//! the tolerance policy that turns a diff into a pass/fail verdict.

use crate::cache::{ArtifactCache, CacheStats};
use crate::experiments::fig01_headroom::Fig01Row;
use crate::experiments::fig04_motivating::Fig04Point;
use crate::experiments::fig09_headroom_mpki::Fig09Row;
use crate::experiments::fig10_branch_accuracy::Fig10Result;
use crate::experiments::fig11_practical::Fig11Row;
use crate::experiments::fig12_trainset::Fig12Sweep;
use crate::experiments::fig13_budget::Fig13Point;
use crate::experiments::mini_pack::MiniPackReport;
use crate::experiments::tables::Table4Report;
use crate::experiments::target_mpki::TargetMpkiRow;
use crate::json::{arr_from_json, arr_to_json, FromJson, Json, JsonError, ToJson};
use crate::Scale;
use branchnet_core::degradation::DegradationSnapshot;
use branchnet_core::parallel::thread_count;
use branchnet_workloads::spec::Benchmark;
use std::path::{Path, PathBuf};

/// Version of the report JSON schema. Bump on any change to artifact
/// field names, metric names, or file layout, and regenerate the
/// golden baselines (`scripts/regen_baselines.sh`) in the same PR.
///
/// v2: `fig13` points gained a `lane` field (mini-pack sweep vs
/// runtime-baseline reference lanes); `table4` grew reference rungs.
///
/// v3: new `target_mpki` artifact (the ITTAGE target-prediction ladder
/// over the indirect-heavy workloads).
pub const SCHEMA_VERSION: u64 = 3;

/// File name of the run manifest inside a `--json` directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Serializes a [`Benchmark`] as its short name.
#[must_use]
pub fn bench_to_json(bench: Benchmark) -> Json {
    Json::Str(bench.name().to_string())
}

/// Parses a [`Benchmark`] from its short name.
pub fn bench_from_json(json: &Json) -> Result<Benchmark, JsonError> {
    let name = json.as_str()?;
    Benchmark::from_name(name).ok_or_else(|| format!("unknown benchmark {name:?}"))
}

/// The structured payload of one experiment artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentData {
    /// A fully-rendered text table (Tables I–III, whose content is
    /// derived from static configuration; any change is a drift).
    Text(String),
    /// Fig. 1 rows.
    Fig01(Vec<Fig01Row>),
    /// Fig. 4 points.
    Fig04(Vec<Fig04Point>),
    /// Fig. 9 rows.
    Fig09(Vec<Fig09Row>),
    /// Fig. 10 results (one per benchmark).
    Fig10(Vec<Fig10Result>),
    /// Fig. 11 rows.
    Fig11(Vec<Fig11Row>),
    /// Fig. 12 sweeps (one per benchmark).
    Fig12(Vec<Fig12Sweep>),
    /// Fig. 13 points.
    Fig13(Vec<Fig13Point>),
    /// Table IV ladder.
    Table4(Table4Report),
    /// Mini-BranchNet pack compositions (one per benchmark).
    MiniPack(Vec<MiniPackReport>),
    /// Target-prediction ladder rows (workload × target predictor).
    TargetMpki(Vec<TargetMpkiRow>),
}

impl ExperimentData {
    /// Discriminator stored in the artifact (decoupled from the file
    /// name so renaming an artifact is not a silent schema change).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ExperimentData::Text(_) => "text",
            ExperimentData::Fig01(_) => "fig01",
            ExperimentData::Fig04(_) => "fig04",
            ExperimentData::Fig09(_) => "fig09",
            ExperimentData::Fig10(_) => "fig10",
            ExperimentData::Fig11(_) => "fig11",
            ExperimentData::Fig12(_) => "fig12",
            ExperimentData::Fig13(_) => "fig13",
            ExperimentData::Table4(_) => "table4",
            ExperimentData::MiniPack(_) => "mini_pack",
            ExperimentData::TargetMpki(_) => "target_mpki",
        }
    }

    fn payload(&self) -> Json {
        match self {
            ExperimentData::Text(s) => Json::Str(s.clone()),
            ExperimentData::Fig01(rows) => arr_to_json(rows),
            ExperimentData::Fig04(rows) => arr_to_json(rows),
            ExperimentData::Fig09(rows) => arr_to_json(rows),
            ExperimentData::Fig10(rows) => arr_to_json(rows),
            ExperimentData::Fig11(rows) => arr_to_json(rows),
            ExperimentData::Fig12(rows) => arr_to_json(rows),
            ExperimentData::Fig13(rows) => arr_to_json(rows),
            ExperimentData::Table4(t) => t.to_json(),
            ExperimentData::MiniPack(rows) => arr_to_json(rows),
            ExperimentData::TargetMpki(rows) => arr_to_json(rows),
        }
    }

    fn from_payload(kind: &str, payload: &Json) -> Result<Self, JsonError> {
        Ok(match kind {
            "text" => ExperimentData::Text(payload.as_str()?.to_string()),
            "fig01" => ExperimentData::Fig01(arr_from_json(payload)?),
            "fig04" => ExperimentData::Fig04(arr_from_json(payload)?),
            "fig09" => ExperimentData::Fig09(arr_from_json(payload)?),
            "fig10" => ExperimentData::Fig10(arr_from_json(payload)?),
            "fig11" => ExperimentData::Fig11(arr_from_json(payload)?),
            "fig12" => ExperimentData::Fig12(arr_from_json(payload)?),
            "fig13" => ExperimentData::Fig13(arr_from_json(payload)?),
            "table4" => ExperimentData::Table4(Table4Report::from_json(payload)?),
            "mini_pack" => ExperimentData::MiniPack(arr_from_json(payload)?),
            "target_mpki" => ExperimentData::TargetMpki(arr_from_json(payload)?),
            other => return Err(format!("unknown experiment kind {other:?}")),
        })
    }
}

/// One experiment artifact: a named, versioned [`ExperimentData`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Schema version the artifact was written with.
    pub schema_version: u64,
    /// Artifact name (also its file stem, e.g. `fig09`).
    pub name: String,
    /// The experiment's rows.
    pub data: ExperimentData,
}

impl ExperimentReport {
    /// Wraps experiment data under the current schema version.
    #[must_use]
    pub fn new(name: &str, data: ExperimentData) -> Self {
        Self { schema_version: SCHEMA_VERSION, name: name.to_string(), data }
    }

    /// The artifact's file name (`<name>.json`).
    #[must_use]
    pub fn file_name(&self) -> String {
        format!("{}.json", self.name)
    }
}

impl ToJson for ExperimentReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::Num(self.schema_version as f64)),
            ("name", Json::Str(self.name.clone())),
            ("kind", Json::Str(self.data.kind().to_string())),
            ("data", self.data.payload()),
        ])
    }
}

impl FromJson for ExperimentReport {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let schema_version = json.field("schema_version")?.as_usize()? as u64;
        let name = json.field("name")?.as_str()?.to_string();
        let kind = json.field("kind")?.as_str()?;
        let data = ExperimentData::from_payload(kind, json.field("data")?)?;
        Ok(Self { schema_version, name, data })
    }
}

/// Gauntlet work attributed to one `reproduce` section: how many
/// single-pass multi-predictor trace walks it issued, the total
/// predictor-lanes they carried (the trace walks a one-predictor-at-a-
/// time harness would have needed), and the summed in-pass wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GauntletUsage {
    /// Gauntlet passes (trace walks) in this section.
    pub passes: u64,
    /// Total predictor-lanes across those passes.
    pub lanes: u64,
    /// Summed wall-clock inside the passes, in milliseconds
    /// (nondeterministic, like [`SectionTime::seconds`]).
    pub millis: u64,
}

impl GauntletUsage {
    /// Converts a counter delta into a manifest entry; `None` when the
    /// section ran no gauntlet passes (so the field stays absent).
    #[must_use]
    pub fn from_delta(delta: &crate::metrics::GauntletSnapshot) -> Option<Self> {
        (delta.passes > 0).then(|| Self {
            passes: delta.passes,
            lanes: delta.lanes,
            millis: delta.millis(),
        })
    }
}

impl ToJson for GauntletUsage {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("passes", Json::Num(self.passes as f64)),
            ("lanes", Json::Num(self.lanes as f64)),
            ("millis", Json::Num(self.millis as f64)),
        ])
    }
}

impl FromJson for GauntletUsage {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let num = |k: &str| json.field(k).and_then(|v| v.as_usize().map(|n| n as u64));
        Ok(Self { passes: num("passes")?, lanes: num("lanes")?, millis: num("millis")? })
    }
}

/// Wall-clock of one `reproduce` section.
#[derive(Debug, Clone, PartialEq)]
pub struct SectionTime {
    /// Section name as printed by `reproduce` (e.g. `Fig. 9`).
    pub name: String,
    /// Elapsed seconds.
    pub seconds: f64,
    /// Gauntlet counters for the section, when it drove any
    /// multi-predictor passes. Optional in the JSON so manifests
    /// written before this field existed still parse.
    pub gauntlet: Option<GauntletUsage>,
}

impl ToJson for SectionTime {
    fn to_json(&self) -> Json {
        let mut fields =
            vec![("name", Json::Str(self.name.clone())), ("seconds", Json::Num(self.seconds))];
        if let Some(g) = &self.gauntlet {
            fields.push(("gauntlet", g.to_json()));
        }
        Json::obj(fields)
    }
}

impl FromJson for SectionTime {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            name: json.field("name")?.as_str()?.to_string(),
            seconds: json.field("seconds")?.as_f64()?,
            gauntlet: json.get("gauntlet").map(GauntletUsage::from_json).transpose()?,
        })
    }
}

impl ToJson for CacheStats {
    fn to_json(&self) -> Json {
        let num = |n: u64| Json::Num(n as f64);
        Json::obj(vec![
            ("trace_hits", num(self.trace_hits)),
            ("trace_misses", num(self.trace_misses)),
            ("model_hits", num(self.model_hits)),
            ("model_misses", num(self.model_misses)),
        ])
    }
}

impl FromJson for CacheStats {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let num = |k: &str| json.field(k).and_then(|v| v.as_usize().map(|n| n as u64));
        // The model counters postdate the first manifests; absent
        // means 0 so older runs still parse (their pack, menu and
        // eviction counters are ignored).
        let opt = |k: &str| json.get(k).map_or(Ok(0), |v| v.as_usize().map(|n| n as u64));
        Ok(Self {
            trace_hits: num("trace_hits")?,
            trace_misses: num("trace_misses")?,
            model_hits: opt("model_hits")?,
            model_misses: opt("model_misses")?,
        })
    }
}

impl ToJson for crate::metrics::TraceFormatSnapshot {
    fn to_json(&self) -> Json {
        let num = |n: u64| Json::Num(n as f64);
        Json::obj(vec![
            ("traces", num(self.traces)),
            ("records", num(self.records)),
            ("sites", num(self.sites)),
            ("blocks", num(self.blocks)),
            ("encoded_bytes", num(self.encoded_bytes)),
        ])
    }
}

impl FromJson for crate::metrics::TraceFormatSnapshot {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let num = |k: &str| json.field(k).and_then(|v| v.as_usize().map(|n| n as u64));
        Ok(Self {
            traces: num("traces")?,
            records: num("records")?,
            sites: num("sites")?,
            blocks: num("blocks")?,
            encoded_bytes: num("encoded_bytes")?,
        })
    }
}

impl ToJson for DegradationSnapshot {
    fn to_json(&self) -> Json {
        Json::obj(vec![("trainings_retried", Json::Num(self.trainings_retried as f64))])
    }
}

impl FromJson for DegradationSnapshot {
    /// Older manifests also carry rejected-pack and isolated-session
    /// counters; they are ignored.
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self { trainings_retried: json.field("trainings_retried")?.as_usize()? as u64 })
    }
}

/// Provenance of one `--json` run: everything needed to interpret (and
/// gate) the experiment artifacts next to it. The timing and thread
/// fields are intentionally nondeterministic; every other artifact in
/// the directory is byte-deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Schema version of the whole run.
    pub schema_version: u64,
    /// `quick` or `full`.
    pub scale: String,
    /// Worker threads the run used (does not affect artifact bytes).
    pub threads: usize,
    /// Experiment artifact file names, in run order.
    pub artifacts: Vec<String>,
    /// Per-section wall-clock, in run order.
    pub sections: Vec<SectionTime>,
    /// Artifact-cache hit/miss counters at the end of the run.
    pub cache: CacheStats,
    /// Graceful-degradation counter at the end of the run (retried
    /// trainings; DESIGN.md §9). Zero on a healthy run.
    pub degradation: DegradationSnapshot,
    /// Accumulated v2 trace-encoding statistics (side-table sizes,
    /// block counts, encoded bytes; DESIGN.md §10). Absent when the
    /// run synthesized no traces — and in manifests written before
    /// the columnar format existed, which still parse.
    pub trace_format: Option<crate::metrics::TraceFormatSnapshot>,
}

impl RunManifest {
    /// A manifest for the given scale under the current schema.
    #[must_use]
    pub fn new(scale: &Scale, threads: usize) -> Self {
        Self {
            schema_version: SCHEMA_VERSION,
            scale: if scale.is_full() { "full" } else { "quick" }.to_string(),
            threads,
            artifacts: Vec::new(),
            sections: Vec::new(),
            cache: CacheStats::default(),
            degradation: DegradationSnapshot::default(),
            trace_format: None,
        }
    }
}

impl ToJson for RunManifest {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema_version", Json::Num(self.schema_version as f64)),
            ("scale", Json::Str(self.scale.clone())),
            ("threads", Json::Num(self.threads as f64)),
            ("artifacts", Json::Arr(self.artifacts.iter().map(|a| Json::Str(a.clone())).collect())),
            ("sections", arr_to_json(&self.sections)),
            ("cache", self.cache.to_json()),
            ("degradation", self.degradation.to_json()),
        ];
        if let Some(tf) = &self.trace_format {
            fields.push(("trace_format", tf.to_json()));
        }
        Json::obj(fields)
    }
}

impl FromJson for RunManifest {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            schema_version: json.field("schema_version")?.as_usize()? as u64,
            scale: json.field("scale")?.as_str()?.to_string(),
            threads: json.field("threads")?.as_usize()?,
            artifacts: json
                .field("artifacts")?
                .as_arr()?
                .iter()
                .map(|a| a.as_str().map(str::to_string))
                .collect::<Result<_, _>>()?,
            sections: arr_from_json(json.field("sections")?)?,
            cache: CacheStats::from_json(json.field("cache")?)?,
            // Absent in manifests written before the degradation
            // counters existed; default to a clean snapshot.
            degradation: json
                .get("degradation")
                .map(DegradationSnapshot::from_json)
                .transpose()?
                .unwrap_or_default(),
            trace_format: json
                .get("trace_format")
                .map(crate::metrics::TraceFormatSnapshot::from_json)
                .transpose()?,
        })
    }
}

/// A complete run: the manifest plus every experiment artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The run's provenance.
    pub manifest: RunManifest,
    /// Experiment artifacts in run order.
    pub experiments: Vec<ExperimentReport>,
}

impl RunReport {
    /// Writes one file per experiment plus `manifest.json` into `dir`
    /// (created if needed).
    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for exp in &self.experiments {
            write_artifact(dir, exp)?;
        }
        std::fs::write(dir.join(MANIFEST_FILE), self.manifest.to_json().render())
    }

    /// Reads a run back from `dir`, validating that the manifest and
    /// the artifact files agree (a listed-but-missing or
    /// present-but-unlisted artifact means a corrupt run).
    pub fn read(dir: &Path) -> Result<Self, String> {
        let manifest_path = dir.join(MANIFEST_FILE);
        let manifest_text = std::fs::read_to_string(&manifest_path)
            .map_err(|e| format!("{}: {e}", manifest_path.display()))?;
        let manifest = RunManifest::from_json(&Json::parse(&manifest_text)?)
            .map_err(|e| format!("{}: {e}", manifest_path.display()))?;
        let mut experiments = Vec::new();
        for file in &manifest.artifacts {
            let exp = read_artifact(&dir.join(file))?;
            if exp.file_name() != *file {
                return Err(format!("artifact {file} names itself {:?}", exp.name));
            }
            experiments.push(exp);
        }
        for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
            let name = entry.map_err(|e| e.to_string())?.file_name();
            let name = name.to_string_lossy().to_string();
            if name.ends_with(".json")
                && name != MANIFEST_FILE
                && !manifest.artifacts.contains(&name)
            {
                return Err(format!(
                    "artifact {name} present in {} but not listed in the manifest",
                    dir.display()
                ));
            }
        }
        Ok(Self { manifest, experiments })
    }
}

/// Writes a standalone binary's single-experiment run: the artifact
/// plus a `manifest.json` naming it, with one section timing and the
/// process-global cache counters. The `fig*`/`table*` binaries use
/// this for their `--json` mode; `reproduce` assembles its multi-
/// section manifest by hand.
///
/// Note the standalone binaries sweep *different* benchmark sets than
/// `reproduce` (e.g. the fig09 binary covers all ten benchmarks at any
/// scale), so their reports pair with baselines generated the same
/// way — the checked-in `baselines/quick/` golden set pairs with
/// `reproduce --json`.
pub fn write_single_run(
    dir: &Path,
    scale: &Scale,
    name: &str,
    data: ExperimentData,
    seconds: f64,
) -> std::io::Result<()> {
    let exp = ExperimentReport::new(name, data);
    let mut manifest = RunManifest::new(scale, thread_count());
    manifest.artifacts = vec![exp.file_name()];
    // One-binary run: the whole process is the section, so the global
    // gauntlet counters are its usage.
    manifest.sections = vec![SectionTime {
        name: name.to_string(),
        seconds,
        gauntlet: GauntletUsage::from_delta(&crate::metrics::snapshot()),
    }];
    manifest.cache = ArtifactCache::global().stats();
    manifest.degradation = branchnet_core::degradation::snapshot();
    let tf = crate::metrics::trace_format_snapshot();
    manifest.trace_format = (tf.traces > 0).then_some(tf);
    let run = RunReport { manifest, experiments: vec![exp] };
    run.write(dir)?;
    println!("json report: {}", dir.display());
    Ok(())
}

/// Writes one experiment artifact (`<dir>/<name>.json`), creating the
/// directory if needed. Returns the written path.
pub fn write_artifact(dir: &Path, report: &ExperimentReport) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(report.file_name());
    std::fs::write(&path, report.to_json().render())?;
    Ok(path)
}

/// Reads one experiment artifact.
pub fn read_artifact(path: &Path) -> Result<ExperimentReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    ExperimentReport::from_json(&Json::parse(&text)?)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Parses the standard experiment-binary CLI: an optional
/// `--json <dir>`. Anything else exits with a usage message (a typoed
/// flag silently ignored would mean a silently missing artifact).
#[must_use]
pub fn json_dir_from_cli(binary: &str) -> Option<PathBuf> {
    let mut args = std::env::args().skip(1);
    let mut dir = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => match args.next() {
                Some(d) => dir = Some(PathBuf::from(d)),
                None => {
                    eprintln!("--json requires a directory\nusage: {binary} [--json <dir>]");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument {other:?}\nusage: {binary} [--json <dir>]");
                std::process::exit(2);
            }
        }
    }
    dir
}

/// A scalar observation, flattened out of an experiment artifact for
/// tolerance comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A numeric metric (compared under a tolerance).
    Num(f64),
    /// An exact-match metric (rendered tables, branch addresses).
    Text(String),
}

/// One `(row, metric, value)` observation of an experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Row key within the experiment (benchmark, sweep point, …).
    pub row: String,
    /// Metric name; its suffix selects the gate tolerance class.
    pub name: String,
    /// Observed value.
    pub value: MetricValue,
}

fn num(row: &str, name: &str, value: f64) -> Metric {
    Metric { row: row.to_string(), name: name.to_string(), value: MetricValue::Num(value) }
}

fn text(row: &str, name: &str, value: String) -> Metric {
    Metric { row: row.to_string(), name: name.to_string(), value: MetricValue::Text(value) }
}

impl ExperimentData {
    /// Flattens the experiment into `(row, metric, value)` triples —
    /// the representation the fidelity gate compares under its
    /// tolerance policy.
    #[must_use]
    pub fn metrics(&self) -> Vec<Metric> {
        let mut out = Vec::new();
        match self {
            ExperimentData::Text(s) => out.push(text("-", "text", s.clone())),
            ExperimentData::Fig01(rows) => {
                for r in rows {
                    let b = r.bench.name();
                    out.push(num(b, "mpki", r.mpki));
                    out.push(num(b, "top8_mpki", r.top8));
                    out.push(num(b, "top25_mpki", r.top25));
                    out.push(num(b, "top50_mpki", r.top50));
                }
            }
            ExperimentData::Fig04(points) => {
                for p in points {
                    let row = format!("alpha={}", p.alpha);
                    out.push(num(&row, "tage_accuracy", p.tage));
                    for (i, acc) in p.cnn.iter().enumerate() {
                        out.push(num(&row, &format!("cnn_set{}_accuracy", i + 1), *acc));
                    }
                }
            }
            ExperimentData::Fig09(rows) => {
                for r in rows {
                    let b = r.bench.name();
                    out.push(num(b, "tage_sc_l_64kb_mpki", r.tage_sc_l_64kb));
                    out.push(num(b, "mtage_sc_mpki", r.mtage_sc));
                    out.push(num(b, "mtage_plus_big_mpki", r.mtage_plus_big));
                    out.push(num(b, "gtage_only_mpki", r.gtage_only));
                    out.push(num(b, "no_sc_local_mpki", r.no_sc_local));
                    out.push(num(b, "improved_branches", r.improved_branches as f64));
                }
            }
            ExperimentData::Fig10(results) => {
                for res in results {
                    for (i, r) in res.rows.iter().enumerate() {
                        let row = format!("{}#{i:02}", res.bench.name());
                        out.push(text(&row, "pc", format!("{:#x}", r.pc)));
                        out.push(num(&row, "mtage_accuracy", r.mtage_accuracy));
                        out.push(num(&row, "branchnet_accuracy", r.branchnet_accuracy));
                        out.push(num(&row, "occurrences", r.occurrences));
                    }
                }
            }
            ExperimentData::Fig11(rows) => {
                for r in rows {
                    let b = r.bench.name();
                    for (label, s) in [
                        ("base", &r.base),
                        ("iso_storage", &r.iso_storage),
                        ("iso_latency", &r.iso_latency),
                        ("big", &r.big),
                        ("tarsa_float", &r.tarsa_float),
                        ("tarsa_ternary", &r.tarsa_ternary),
                    ] {
                        out.push(num(b, &format!("{label}_mpki"), s.mpki));
                        out.push(num(b, &format!("{label}_ipc"), s.ipc));
                    }
                }
            }
            ExperimentData::Fig12(sweeps) => {
                for sweep in sweeps {
                    for p in &sweep.points {
                        let row = format!("{}@examples={}", sweep.bench.name(), p.examples);
                        out.push(num(&row, "mpki_reduction_pct", p.mpki_reduction_pct));
                    }
                }
            }
            ExperimentData::Fig13(points) => {
                for p in points {
                    // Mini-pack sweep points keep their historical
                    // budget-keyed rows; reference lanes key by name
                    // (their budget is a property, not a sweep axis).
                    let row = if p.lane == crate::experiments::fig13_budget::MINI_PACK_LANE {
                        format!("{}@{}KB", p.bench.name(), p.budget_kb)
                    } else {
                        format!("{}@{}", p.bench.name(), p.lane)
                    };
                    out.push(num(&row, "mpki_reduction_pct", p.mpki_reduction_pct));
                    out.push(num(&row, "models", p.models as f64));
                }
            }
            ExperimentData::Table4(t) => {
                for r in &t.rows {
                    let row = format!("{}:{}", t.bench.name(), r.label);
                    out.push(num(&row, "mpki_reduction_pct", r.mpki_reduction_pct));
                }
            }
            ExperimentData::MiniPack(packs) => {
                for p in packs {
                    let b = p.bench.name();
                    out.push(num(b, "models", p.model_pcs.len() as f64));
                    out.push(num(b, "total_bytes", p.total_bytes as f64));
                    let pcs: Vec<String> =
                        p.model_pcs.iter().map(|pc| format!("{pc:#x}")).collect();
                    out.push(text(b, "model_pcs", pcs.join(",")));
                }
            }
            ExperimentData::TargetMpki(rows) => {
                for r in rows {
                    let row = format!("{}@{}", r.workload.name(), r.predictor);
                    out.push(num(&row, "target_mpki", r.target_mpki));
                    out.push(num(&row, "target_accuracy", r.target_accuracy));
                }
            }
        }
        out
    }
}

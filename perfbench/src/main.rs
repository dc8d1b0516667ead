//! End-to-end and per-layer benchmark of hiperbot tuning campaigns.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ranking-serial --seed 1 --seconds 25 --trace 0
//! ```
//!
//! A run repeats campaigns of one workload, each with its own seed derived
//! from `--seed`, for `--seconds` seconds, checks every campaign, and
//! prints a table followed by one JSON line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

mod batch;
mod figure;
mod gate;
mod proposal;
mod ranking;
mod replay;
mod stats;

use gate::Tally;
use stats::{campaign_seed, fastest_per_position, mean, median, quantile, since, Campaign};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Where campaigns write traces and checkpoints, relative to the
/// directory the benchmark runs in.
const TMP_ROOT: &str = ".bench_tmp";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    RankingSerial,
    ProposalContinuous,
    BatchCampaign,
    FigureRepro,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::RankingSerial,
        Workload::ProposalContinuous,
        Workload::BatchCampaign,
        Workload::FigureRepro,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::RankingSerial => "ranking-serial",
            Workload::ProposalContinuous => "proposal-continuous",
            Workload::BatchCampaign => "batch-campaign",
            Workload::FigureRepro => "figure-repro",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The quality metrics average the first this-many campaigns, so they
    /// repeat exactly for a seed whatever the host's speed.
    fn quality_campaigns(self) -> usize {
        match self {
            Workload::RankingSerial => 40,
            Workload::ProposalContinuous => 20,
            Workload::BatchCampaign => 10,
            Workload::FigureRepro => 10,
        }
    }

    /// Runs one campaign; a panic counts as an errored campaign.
    fn campaign(self, seed: u64, traced: bool, dir: &Path) -> Campaign {
        let run = || match self {
            Workload::RankingSerial => ranking::campaign(seed, traced),
            Workload::ProposalContinuous => proposal::campaign(seed, traced),
            Workload::BatchCampaign => batch::campaign(seed, traced, dir),
            Workload::FigureRepro => figure::campaign(seed, traced),
        };
        catch_unwind(AssertUnwindSafe(run))
            .unwrap_or_else(|_| Campaign::failed("the campaign panicked"))
    }

    /// Checks made once per run, after the timed window: a rerun of the
    /// first campaign's seed must reproduce its digest, and the workload
    /// must match the CLI or figure code it stands for.
    fn verify(self, seed: u64, first: &Campaign, dir: &Path) -> Result<(), String> {
        let rerun = self.campaign(seed, false, dir);
        rerun.check?;
        gate::same_digest(first.digest, rerun.digest)?;
        match self {
            Workload::RankingSerial => ranking::cli_parity(seed, first),
            Workload::ProposalContinuous => Ok(()),
            Workload::BatchCampaign => batch::cli_parity(seed, first, dir),
            Workload::FigureRepro => figure::figure_parity(),
        }
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    select_w1: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        select_w1: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--select-w1" => args.select_w1 = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if args.workload.is_none() && !args.select_w1 {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Peak resident memory of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// `rank_encoded` p50 at rayon width 1, measured in a child process so
/// no process changes its rayon width while running.
fn select_w1_p50(seed: u64, seconds: f64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--select-w1", "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("cannot start the width-1 run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match (out.status.success(), stdout.lines().last()) {
        (true, Some(line)) => line
            .trim()
            .parse()
            .map_err(|_| format!("bad output '{line}'")),
        _ => Err(format!(
            "the width-1 run failed: {}",
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
    /// Whether the JSON line carries it (`BENCHMARK.json` lists it).
    in_json: bool,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Self {
        Self {
            name,
            value,
            unit,
            note: note.into(),
            in_json: true,
        }
    }

    /// A metric printed in the table only.
    fn table_only(self) -> Self {
        Self {
            in_json: false,
            note: format!("{} (table only)", self.note),
            ..self
        }
    }
}

/// Where a per-layer metric comes from.
enum Source {
    /// A quantile of the timing samples pooled over traced campaigns.
    Quantile(&'static str, f64),
    /// The median over traced campaigns of a per-campaign value.
    Value(&'static str),
    /// The median over traced campaigns of a layer's share of wall time.
    Share(&'static str),
    Unattributed,
    TraceOverhead,
    SelectW1,
    LogicalCores,
    RayonWidth,
}

/// Layers whose busy times partition a campaign's wall time. `obs` is
/// left out: trace writes happen inside the tuner and executor calls.
const PARTITION: [&str; 10] = [
    "apps",
    "space",
    "cli",
    "core.fit",
    "core.select",
    "core.merge",
    "core.checkpoint",
    "eval",
    "baselines",
    "objective",
];

/// The per-layer metrics, in the order `BENCHMARK.json` lists them.
const PER_LAYER: &[(&str, &str, Source)] = &[
    ("apps.dataset_s", "s", Source::Value("apps.dataset_s")),
    ("apps.evals", "count", Source::Value("apps.evals")),
    ("apps.share", "frac", Source::Share("apps")),
    (
        "space.pool_encode_us",
        "us",
        Source::Value("space.pool_encode_us"),
    ),
    ("space.pool_size", "count", Source::Value("space.pool_size")),
    ("space.share", "frac", Source::Share("space")),
    (
        "cli.spec_parse_us",
        "us",
        Source::Value("cli.spec_parse_us"),
    ),
    ("cli.share", "frac", Source::Share("cli")),
    (
        "core.fit_us.p50",
        "us",
        Source::Quantile("core.fit_us", 0.5),
    ),
    (
        "core.fit_us.p99",
        "us",
        Source::Quantile("core.fit_us", 0.99),
    ),
    ("core.fit.share", "frac", Source::Share("core.fit")),
    (
        "core.select_us.p50",
        "us",
        Source::Quantile("core.select_us", 0.5),
    ),
    (
        "core.select_us.p99",
        "us",
        Source::Quantile("core.select_us", 0.99),
    ),
    ("core.select_us.w1.p50", "us", Source::SelectW1),
    (
        "core.candidates_per_select",
        "count",
        Source::Value("core.candidates_per_select"),
    ),
    ("core.select.share", "frac", Source::Share("core.select")),
    (
        "core.suggest_batch_us.p50",
        "us",
        Source::Quantile("core.suggest_batch_us", 0.5),
    ),
    (
        "core.merge_us.p50",
        "us",
        Source::Quantile("core.merge_us", 0.5),
    ),
    ("core.merge.share", "frac", Source::Share("core.merge")),
    ("core.stalls", "count", Source::Value("core.stalls")),
    (
        "core.checkpoint_write_us.p50",
        "us",
        Source::Quantile("core.checkpoint_write_us", 0.5),
    ),
    (
        "core.checkpoint_bytes",
        "bytes",
        Source::Value("core.checkpoint_bytes"),
    ),
    (
        "core.checkpoint.share",
        "frac",
        Source::Share("core.checkpoint"),
    ),
    (
        "eval.dispatch_us.p50",
        "us",
        Source::Quantile("eval.dispatch_us", 0.5),
    ),
    (
        "eval.worker_idle_frac",
        "frac",
        Source::Value("eval.worker_idle_frac"),
    ),
    ("eval.retries", "count", Source::Value("eval.retries")),
    (
        "eval.trials_failed",
        "count",
        Source::Value("eval.trials_failed"),
    ),
    ("eval.share", "frac", Source::Share("eval")),
    (
        "obs.record_us.total",
        "us",
        Source::Value("obs.record_us.total"),
    ),
    ("obs.events", "count", Source::Value("obs.events")),
    ("obs.trace_bytes", "bytes", Source::Value("obs.trace_bytes")),
    ("obs.share", "frac", Source::Share("obs")),
    (
        "baselines.random_select_ms",
        "ms",
        Source::Value("baselines.random_select_ms"),
    ),
    (
        "baselines.geist_select_ms",
        "ms",
        Source::Value("baselines.geist_select_ms"),
    ),
    (
        "baselines.hiperbot_select_ms",
        "ms",
        Source::Value("baselines.hiperbot_select_ms"),
    ),
    ("baselines.share", "frac", Source::Share("baselines")),
    ("bench.objective.share", "frac", Source::Share("objective")),
    ("bench.unattributed_frac", "frac", Source::Unattributed),
    ("bench.trace_overhead_frac", "frac", Source::TraceOverhead),
    ("host.logical_cores", "count", Source::LogicalCores),
    ("host.rayon_width", "count", Source::RayonWidth),
];

struct Host {
    cores: usize,
    width: usize,
}

/// The untraced run: campaigns for `seconds`, end-to-end metrics.
fn end_to_end(w: Workload, args: &Args, dir: &Path, tally: &mut Tally) -> Vec<Metric> {
    let start = Instant::now();
    let mut campaigns = Vec::new();
    let mut rss = None;
    let mut i = 0u64;
    while (i as usize) < w.quality_campaigns() || since(start) < args.seconds {
        let c = w.campaign(campaign_seed(args.seed, i), false, dir);
        tally.record(&c.check);
        campaigns.push(c);
        i += 1;
        // Read after a fixed number of campaigns: the records this loop
        // keeps grow with the campaign count, which depends on speed.
        if i as usize == w.quality_campaigns() {
            rss = peak_rss_mb();
        }
    }
    tally.fail(&w.verify(campaign_seed(args.seed, 0), &campaigns[0], dir));
    if rss.is_none() {
        tally.fail(&Err("cannot read the peak resident memory".into()));
    }

    let quality = &campaigns[..w.quality_campaigns()];
    let q = quality.len();
    // On a shared host a campaign runs at full speed or up to ~2x slower
    // while other tenants load the machine, switching within a second, so
    // a median over campaigns flips between the two modes from run to run.
    // Each timing is the fastest the run reached at each position instead:
    // it measures the program whenever any campaign ran unslowed there.
    let ok: Vec<&Campaign> = campaigns.iter().filter(|c| c.check.is_ok()).collect();
    let n = ok.len();
    let decide = fastest_per_position(ok.iter().map(|c| c.decide_us.as_slice()));
    let seconds: Vec<Vec<f64>> = ok
        .iter()
        .map(|c| c.periods.iter().map(|p| p.1).collect())
        .collect();
    let period = fastest_per_position(seconds.iter().map(Vec::as_slice));
    let trials: f64 = ok.first().map_or(0.0, |c| {
        c.periods.iter().take(period.len()).map(|p| p.0).sum()
    });
    let pooled: Vec<f64> = ok
        .iter()
        .flat_map(|c| c.decide_us.iter().copied())
        .collect();
    let fastest = format!("fastest of {n} campaigns per position");
    vec![
        Metric::new(
            "setup_s",
            ok.iter().map(|c| c.setup_s).fold(f64::INFINITY, f64::min),
            "s",
            format!("fastest of {n} campaigns"),
        ),
        Metric::new(
            "trials_per_s",
            trials / period.iter().sum::<f64>(),
            "1/s",
            format!("{} positions, {fastest}", period.len()),
        ),
        Metric::new(
            "decide_us.p50",
            median(&decide),
            "us",
            format!("{} positions, {fastest}", decide.len()),
        ),
        // Tail latency is mostly other tenants' jitter: ranking-serial and
        // figure-repro decisions all do the same work.
        Metric::new(
            "decide_us.p99",
            quantile(&pooled, 0.99),
            "us",
            format!("{} decisions pooled over {n} campaigns", pooled.len()),
        )
        .table_only(),
        Metric::new(
            "peak_rss_mb",
            rss.unwrap_or(0.0),
            "MB",
            format!("whole process, after the first {q} campaigns"),
        ),
        Metric::new(
            "final_gap_pct",
            mean(&quality.iter().map(|c| c.gap_pct).collect::<Vec<_>>()),
            "%",
            format!("mean of the first {q}"),
        )
        .table_only(),
        Metric::new(
            "evals_to_gap1pct",
            mean(&quality.iter().map(|c| c.evals_to_gap1).collect::<Vec<_>>()),
            "count",
            format!("mean of the first {q}"),
        )
        .table_only(),
    ]
}

/// The traced run: pairs of an untraced and a traced campaign on one
/// seed, per-layer metrics from the traced ones.
fn per_layer(w: Workload, args: &Args, host: &Host, dir: &Path, tally: &mut Tally) -> Vec<Metric> {
    let mut w1 = None;
    let mut budget = args.seconds;
    if w == Workload::RankingSerial {
        let t = Instant::now();
        match select_w1_p50(args.seed, args.seconds / 4.0) {
            Ok(v) => w1 = Some(v),
            Err(e) => tally.fail(&Err(e)),
        }
        budget -= since(t);
    }
    let start = Instant::now();
    let mut traced = Vec::new();
    let mut overhead = Vec::new();
    let mut j = 0u64;
    while j < 2 || since(start) < budget {
        let seed = campaign_seed(args.seed, j);
        // Alternate which side runs first so neither gets the warmer cache.
        let (plain, t) = if j.is_multiple_of(2) {
            let plain = w.campaign(seed, false, dir);
            (plain, w.campaign(seed, true, dir))
        } else {
            let t = w.campaign(seed, true, dir);
            (w.campaign(seed, false, dir), t)
        };
        tally.record(&plain.check);
        tally.record(&t.check);
        overhead.push((t.wall_s - plain.wall_s) / plain.wall_s);
        traced.push(t);
        j += 1;
    }
    tally.fail(&w.verify(campaign_seed(args.seed, 0), &traced[0], dir));

    let layers: Vec<&stats::Layers> = traced.iter().filter_map(|c| c.layers.as_ref()).collect();
    let n = layers.len();
    let mut pooled: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for l in &layers {
        for (k, v) in &l.samples {
            pooled.entry(k).or_default().extend(v);
        }
    }
    let share = |layer: &str| -> Option<f64> {
        let shares: Vec<f64> = traced
            .iter()
            .filter_map(|c| Some(c.layers.as_ref()?.busy_s.get(layer)? / c.wall_s))
            .collect();
        (!shares.is_empty()).then(|| median(&shares))
    };
    let unattributed: Vec<f64> = traced
        .iter()
        .filter_map(|c| {
            let busy = &c.layers.as_ref()?.busy_s;
            Some(1.0 - PARTITION.iter().filter_map(|k| busy.get(k)).sum::<f64>() / c.wall_s)
        })
        .collect();
    PER_LAYER
        .iter()
        .map(|(name, unit, source)| {
            let (value, note) = match source {
                Source::Quantile(key, q) => match pooled.get(key) {
                    Some(v) => (Some(quantile(v, *q)), format!("{} samples", v.len())),
                    None => (None, String::new()),
                },
                Source::Value(key) => {
                    let v: Vec<f64> = layers
                        .iter()
                        .filter_map(|l| l.values.get(key).copied())
                        .collect();
                    (
                        (!v.is_empty()).then(|| median(&v)),
                        format!("median of {}", v.len()),
                    )
                }
                Source::Share(layer) => (share(layer), format!("median of {n}")),
                Source::Unattributed => (Some(median(&unattributed)), format!("median of {n}")),
                Source::TraceOverhead => (
                    Some(median(&overhead)),
                    format!("median of {} pairs", overhead.len()),
                ),
                Source::SelectW1 => (w1, "own process, RAYON_NUM_THREADS=1".into()),
                Source::LogicalCores => (Some(host.cores as f64), String::new()),
                Source::RayonWidth => (Some(host.width as f64), String::new()),
            };
            match value {
                Some(v) => Metric::new(name, v, unit, note),
                None => Metric::new(name, 0.0, unit, "not loaded by this workload"),
            }
        })
        .collect()
}

/// The JSON result line.
fn result_json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| m.in_json)
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Pinned once, before any parallel call: the vendored rayon reads this
    // on every call, so it holds for the whole process.
    let width = if args.select_w1 { 1 } else { cores.min(2) };
    std::env::set_var("RAYON_NUM_THREADS", width.to_string());
    if args.select_w1 {
        println!(
            "{}",
            median(&ranking::select_samples(args.seed, args.seconds))
        );
        return ExitCode::SUCCESS;
    }
    let w = args.workload.expect("checked by parse_args");
    let dir: PathBuf = Path::new(TMP_ROOT).join(format!("{}-{}", w.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let host = Host { cores, width };
    let mut tally = Tally::default();
    let metrics = if args.trace {
        per_layer(w, &args, &host, &dir, &mut tally)
    } else {
        end_to_end(w, &args, &dir, &mut tally)
    };
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(TMP_ROOT);

    let finite = metrics.iter().all(|m| !m.in_json || m.value.is_finite());
    let correct = tally.failed == 0 && finite;
    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!(
        "host logical_cores={cores} rayon_width={width} rustc=\"{}\"",
        rustc_version()
    );
    for m in &metrics {
        println!(
            "  {:<30} {:>16.6} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    println!(
        "  {:<30} {:>16.6} {:<6} {} of {} campaigns",
        "ops_failed_frac",
        tally.fail_frac(),
        "frac",
        tally.failed,
        tally.attempted
    );
    for reason in &tally.reasons {
        println!("  failure: {reason}");
    }
    let metrics: Vec<Metric> = metrics
        .into_iter()
        .map(|m| Metric {
            value: if m.value.is_finite() { m.value } else { 0.0 },
            ..m
        })
        .collect();
    println!("{}", result_json(correct, &tally, &metrics));
    ExitCode::SUCCESS
}

//! `figure-repro`: the paper's Fig. 3 study on `kripke-energy` — Random,
//! GEIST and HiPerBOt at the checkpoints up to 439 samples — with a small
//! repetition count. It runs the calls `config_selection::run` makes, with
//! each selector wrapped so its `select` calls and objective calls are
//! timed from outside; the trial seed comes from the campaign seed.

use crate::gate::{self, Claim};
use crate::stats::{evals_to_gap1, gap_pct, mean, median, since, us, Campaign, Digest, Layers};
use hiperbot::apps::{kripke, Dataset, Scale};
use hiperbot::baselines::{
    ConfigSelector, GeistSelector, HiPerBOtSelector, RandomSelector, SelectionRun,
};
use hiperbot::eval::experiments::config_selection::{self, checkpoints, FigureSpec};
use hiperbot::eval::runner::run_trials_diagnosed;
use hiperbot::eval::{run_trials, CheckpointStats, GoodSet, TrialConfig};
use hiperbot::obs::NoopRecorder;
use hiperbot::space::{Configuration, ParameterSpace};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Repetitions per method (one per rayon thread on a 2-core host).
pub const REPS: usize = 2;
/// HiPerBOt's bootstrap size: its decisions start at this call.
const INIT: usize = 20;
/// The figure's report id, as the `fig3_kripke_energy` binary names it.
const ID: &str = "fig3-kripke-energy";

/// What one `select` call did, as seen from outside.
struct SelectLog {
    seed: u64,
    dur: Duration,
    /// Entry time and evaluator duration of each objective call.
    calls: Vec<(Instant, Duration)>,
    run: SelectionRun,
}

/// A selector whose `select` calls and objective calls are timed.
struct Timed<S> {
    inner: S,
    logs: Mutex<Vec<SelectLog>>,
}

impl<S> Timed<S> {
    fn new(inner: S) -> Self {
        Self {
            inner,
            logs: Mutex::new(Vec::new()),
        }
    }

    /// The logs, ordered by repetition seed.
    fn into_logs(self) -> Vec<SelectLog> {
        let mut logs = self.logs.into_inner().expect("no select call panicked");
        logs.sort_by_key(|l| l.seed);
        logs
    }
}

impl<S: ConfigSelector> ConfigSelector for Timed<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn select(
        &self,
        space: &ParameterSpace,
        pool: &[Configuration],
        objective: &(dyn Fn(&Configuration) -> f64 + Sync),
        budget: usize,
        seed: u64,
    ) -> SelectionRun {
        let calls = Mutex::new(Vec::with_capacity(budget));
        let timed_objective = |cfg: &Configuration| {
            let t = Instant::now();
            let y = objective(cfg);
            let e = t.elapsed();
            calls
                .lock()
                .expect("no objective call panicked")
                .push((t, e));
            y
        };
        let start = Instant::now();
        let run = self
            .inner
            .select(space, pool, &timed_objective, budget, seed);
        let dur = start.elapsed();
        self.logs
            .lock()
            .expect("no select call panicked")
            .push(SelectLog {
                seed,
                dur,
                calls: calls.into_inner().expect("no objective call panicked"),
                run: run.clone(),
            });
        run
    }
}

/// The three methods' logs and per-checkpoint statistics, in the order
/// `config_selection::run` runs them: HiPerBOt, Random, GEIST.
struct Study {
    logs: [Vec<SelectLog>; 3],
    stats: [Vec<CheckpointStats>; 3],
    walls: [f64; 3],
}

fn study(dataset: &Dataset, trial: &TrialConfig) -> Study {
    let hiperbot = Timed::new(HiPerBOtSelector::default());
    let random = Timed::new(RandomSelector);
    let geist = Timed::new(GeistSelector::default());
    let t = Instant::now();
    let (hiperbot_stats, _) = run_trials_diagnosed(dataset, &hiperbot, trial, &NoopRecorder);
    let hiperbot_wall = since(t);
    let t = Instant::now();
    let random_stats = run_trials(dataset, &random, trial);
    let random_wall = since(t);
    let t = Instant::now();
    let geist_stats = run_trials(dataset, &geist, trial);
    let geist_wall = since(t);
    Study {
        logs: [hiperbot.into_logs(), random.into_logs(), geist.into_logs()],
        stats: [hiperbot_stats, random_stats, geist_stats],
        walls: [hiperbot_wall, random_wall, geist_wall],
    }
}

fn trial_config(seed: u64) -> TrialConfig {
    TrialConfig::new(checkpoints::FIG3.to_vec())
        .with_repetitions(REPS)
        .with_good(GoodSet::Tolerance(0.10))
        .with_seed(seed)
}

/// Every objective a run reports must be the dataset's value for its
/// configuration, and its best must not beat the exhaustive best.
fn check_run(dataset: &Dataset, run: &SelectionRun, known: f64) -> Result<(), String> {
    for (cfg, &y) in run.configs.iter().zip(&run.objectives) {
        gate::check(Claim {
            reported_best: y,
            evaluator_value: dataset.evaluate(cfg),
            known_best: known,
        })?;
    }
    if run.is_empty() {
        return Err("a selector returned an empty run".into());
    }
    Ok(())
}

/// One campaign: dataset generation plus the three-method study.
pub fn campaign(seed: u64, traced: bool) -> Campaign {
    let t0 = Instant::now();
    let dataset = kripke::energy_dataset(Scale::Target);
    let dataset_s = since(t0);
    let s = study(&dataset, &trial_config(seed));
    let wall_s = since(t0);

    let known = dataset.best().1;
    let budget = *checkpoints::FIG3.iter().max().expect("non-empty");
    let mut check = Ok(());
    let mut digest = Digest::default();
    for log in s.logs.iter().flatten() {
        check = check.and(check_run(&dataset, &log.run, known));
        digest.word(log.seed);
        for y in &log.run.objectives {
            digest.word(y.to_bits());
        }
    }
    if s.logs.iter().any(|l| l.len() != REPS) {
        check = check.and(Err("a method ran the wrong number of repetitions".into()));
    }

    // HiPerBOt's objective calls from INIT on each follow one tuner
    // decision; the gap before the call is that decision.
    let mut decide_us = Vec::new();
    let mut first_decision: Option<(Instant, f64)> = None;
    let mut gaps = Vec::new();
    let mut evals_to = Vec::new();
    for log in &s.logs[0] {
        for j in INIT..log.calls.len() {
            let (prev_at, prev_eval) = log.calls[j - 1];
            decide_us.push(us(log.calls[j].0.duration_since(prev_at + prev_eval)));
        }
        if let Some(&(at, _)) = log.calls.get(INIT) {
            let eval_before: Duration = log.calls[..INIT].iter().map(|c| c.1).sum();
            let setup = at.duration_since(t0).as_secs_f64() - eval_before.as_secs_f64();
            if first_decision.is_none_or(|(a, _)| at < a) {
                first_decision = Some((at, setup));
            }
        }
        gaps.push(gap_pct(log.run.best_within(budget), known));
        let ys: Vec<Option<f64>> = log.run.objectives.iter().map(|&y| Some(y)).collect();
        evals_to.push(evals_to_gap1(&ys, known, budget));
    }
    let Some((_, setup_s)) = first_decision else {
        return Campaign::failed("HiPerBOt made no model-driven decision");
    };
    let evaluations: usize = s.logs.iter().flatten().map(|l| l.calls.len()).sum();
    // One position per `select` call, in study order. (Per objective call
    // would be finer, but the gaps between GEIST's calls inside a round are
    // microseconds of jitter whose minimum keeps falling as campaigns are
    // added.)
    let periods = s
        .logs
        .iter()
        .flatten()
        .map(|l| (l.calls.len() as f64, l.dur.as_secs_f64()))
        .collect();

    let mut layers = None;
    if traced {
        let mut l = Layers::default();
        l.value("apps.dataset_s", dataset_s);
        l.value("apps.evals", evaluations as f64);
        l.busy("apps", dataset_s);
        l.busy("baselines", s.walls.iter().sum());
        for (logs, key) in s.logs.iter().zip([
            "baselines.hiperbot_select_ms",
            "baselines.random_select_ms",
            "baselines.geist_select_ms",
        ]) {
            let ms: Vec<f64> = logs.iter().map(|l| l.dur.as_secs_f64() * 1e3).collect();
            l.value(key, median(&ms));
        }
        layers = Some(l);
    }
    Campaign {
        wall_s,
        setup_s,
        periods,
        decide_us,
        gap_pct: mean(&gaps),
        evals_to_gap1: mean(&evals_to),
        digest: digest.value(),
        check,
        layers,
        ..Campaign::default()
    }
}

/// The study this benchmark runs must be the one `config_selection::run`
/// runs: with the figure's own trial seed, every method's per-checkpoint
/// mean best must match the report's.
pub fn figure_parity() -> Result<(), String> {
    let dataset = kripke::energy_dataset(Scale::Target);
    let spec = FigureSpec {
        id: ID.into(),
        title: "Kripke energy".into(),
        checkpoints: checkpoints::FIG3.to_vec(),
        good: GoodSet::Tolerance(0.10),
        repetitions: REPS,
    };
    let report = config_selection::run(&dataset, &spec);
    // The trial seed `config_selection::run` derives from the report id.
    let ours = study(&dataset, &trial_config(0xF1E1D1 ^ ID.len() as u64));
    let by_name = |name: &str| report.series.iter().find(|s| s.method == name);
    for (stats, name) in ours.stats.iter().zip(["HiPerBOt", "Random", "GEIST"]) {
        let series = by_name(name).ok_or(format!("the report has no {name} series"))?;
        for (point, row) in series.points.iter().zip(stats) {
            if point.best_mean.to_bits() != row.best.mean().to_bits() {
                return Err(format!(
                    "{name} at {} samples: study {} vs report {}",
                    row.samples,
                    row.best.mean(),
                    point.best_mean
                ));
            }
        }
    }
    Ok(())
}

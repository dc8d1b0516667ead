//! `ranking-serial`: the paper's serial loop on `kripke-energy`, the
//! largest pool, through the calls `hiperbot --app kripke-energy --budget
//! 400` makes. The evaluator is the dataset lookup, so the Ranking argmax
//! and setup are what the campaign spends its time on.

use crate::gate::{self, Claim};
use crate::replay::{self, digest, Trial};
use crate::stats::{evals_to_gap1, gap_pct, periods, since, Campaign, Layers};
use hiperbot::apps::{kripke, Scale};
use hiperbot::cli::{self, render_config, CliOptions};
use hiperbot::core::{SelectionStrategy, SurrogateMode, Tuner, TunerOptions};
use hiperbot::eval::{outcome_from_sim, RetryPolicy, RetryingObjective};
use hiperbot::perfsim::faults::FaultModel;
use hiperbot::space::Configuration;
use std::time::Instant;

/// Trials per campaign.
pub const BUDGET: usize = 400;
/// Bootstrap trials (the CLI default).
pub const INIT: usize = 20;
/// The CLI's name for the dataset.
const APP: &str = "kripke-energy";

/// One campaign with the given seed. A traced campaign also replays its
/// decision layers after its timed window.
pub fn campaign(seed: u64, traced: bool) -> Campaign {
    let t0 = Instant::now();
    let dataset = kripke::energy_dataset(Scale::Target);
    let dataset_s = since(t0);
    let space = dataset.space().clone();
    let model = FaultModel::new(seed, 0.0);
    let options = TunerOptions::default()
        .with_seed(seed)
        .with_init_samples(INIT)
        .with_strategy(SelectionStrategy::Ranking)
        .with_surrogate_mode(SurrogateMode::Incremental);
    let mut tuner = Tuner::new(space.clone(), options);
    let policy = RetryPolicy::default().with_max_retries(0).with_seed(seed);
    let mut retrying = RetryingObjective::new(
        |cfg: &Configuration, attempt: u32| {
            outcome_from_sim(dataset.evaluate_outcome(cfg, &model, attempt))
        },
        policy,
    );

    let mut trials: Vec<Trial> = Vec::with_capacity(BUDGET);
    let mut eval_s = 0.0;
    let mut setup_s: Option<f64> = None;
    let mut starts: Vec<(Instant, usize)> = Vec::with_capacity(BUDGET);
    let mut decide_us = Vec::with_capacity(BUDGET);
    while tuner.history().trials() < BUDGET {
        let before = tuner.history().trials();
        let step_start = Instant::now();
        let mut step_eval = 0.0;
        let progressed = tuner.step_fallible(|cfg| {
            let t = Instant::now();
            if trials.len() >= INIT {
                setup_s.get_or_insert(t.duration_since(t0).as_secs_f64() - eval_s);
                starts.push((t, 1));
            }
            let outcome = retrying.evaluate(cfg);
            step_eval += since(t);
            trials.push(Trial {
                cfg: cfg.clone(),
                y: outcome.clone().normalized().value(),
            });
            outcome
        });
        eval_s += step_eval;
        if before >= INIT {
            decide_us.push((since(step_start) - step_eval) * 1e6);
        }
        if !progressed || tuner.history().trials() == before {
            break;
        }
    }
    let end = Instant::now();
    let wall_s = end.duration_since(t0).as_secs_f64();

    let known = dataset.best().1;
    let (best, best_y) = match tuner.history().best() {
        Some((_, cfg, y)) => (cfg.clone(), y),
        None => return Campaign::failed("every trial failed"),
    };
    let mut check = gate::check(Claim {
        reported_best: best_y,
        evaluator_value: dataset.evaluate(&best),
        known_best: known,
    });
    if check.is_ok() && trials.len() != BUDGET {
        check = Err(format!(
            "spent {} trials of a {BUDGET} budget",
            trials.len()
        ));
    }
    let Some(setup_s) = setup_s else {
        return Campaign::failed("no model-driven decision was made");
    };
    let ys: Vec<Option<f64>> = trials.iter().map(|t| t.y).collect();
    let mut layers = None;
    if traced {
        let mut l = Layers::default();
        l.value("apps.dataset_s", dataset_s);
        l.value("apps.evals", trials.len() as f64);
        l.busy("apps", dataset_s + eval_s);
        let batches: Vec<(usize, usize)> = (INIT..trials.len()).map(|b| (b, 1)).collect();
        if let Err(e) = replay::ranking(&space, &trials, &batches, &mut l) {
            check = check.and(Err(e));
        }
        layers = Some(l);
    }
    Campaign {
        wall_s,
        setup_s,
        periods: periods(&starts, end),
        decide_us,
        gap_pct: gap_pct(best_y, known),
        evals_to_gap1: evals_to_gap1(&ys, known, BUDGET),
        digest: digest(&trials),
        best: (render_config(&best, &space), best_y),
        check,
        layers,
    }
}

/// The campaign's best must be what `hiperbot --app kripke-energy` reports
/// for the same seed and budget.
pub fn cli_parity(seed: u64, first: &Campaign) -> Result<(), String> {
    let options = CliOptions {
        app: Some(APP.into()),
        budget: BUDGET,
        seed,
        init_samples: INIT,
        ..CliOptions::default()
    };
    gate::same_best(&cli::run(&options)?, &first.best)
}

/// Runs ranking-serial campaigns for `seconds` (at least two) in this
/// process and returns the pooled `rank_encoded` timings, microseconds.
pub fn select_samples(seed: u64, seconds: f64) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut i = 0;
    while i < 2 || since(start) < seconds {
        let c = campaign(crate::stats::campaign_seed(seed, i), true);
        if let Some(mut l) = c.layers {
            samples.append(l.samples.entry("core.select_us").or_default());
        }
        i += 1;
    }
    samples
}

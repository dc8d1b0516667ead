//! `proposal-continuous`: six continuous parameters and one discrete one,
//! parsed through the CLI's `SpaceSpec` as `hiperbot --space` does, tuned
//! with the Proposal strategy (32 candidates, as the CLI uses) against an
//! in-process analytic bowl whose minimum is known exactly. There is no
//! pool and no Ranking argmax: KDE fitting and candidate scoring, which
//! grow with the history, do the work.

use crate::gate::{self, Claim};
use crate::replay::{self, digest, Trial};
use crate::stats::{evals_to_gap1, gap_pct, periods, since, splitmix, us, Campaign, Layers};
use hiperbot::cli::{render_config, SpaceSpec};
use hiperbot::core::{EvalOutcome, SelectionStrategy, SurrogateMode, Tuner, TunerOptions};
use hiperbot::eval::{RetryPolicy, RetryingObjective};
use hiperbot::space::{Configuration, ParamValue};
use std::time::Instant;

/// Trials per campaign. At 1000 a campaign takes about a second, and a
/// run holds too few of them to catch the host's unslowed moments at every
/// position (see README.md); at 400 the KDE work still grows with the
/// history and dominates.
pub const BUDGET: usize = 400;
/// Bootstrap trials (the CLI default).
pub const INIT: usize = 20;
/// Proposal candidates per decision (what the CLI uses).
pub const CANDIDATES: usize = 32;

/// The space, as a user would write it for `hiperbot --space`.
pub const SPEC: &str = r#"{"params":[
  {"type":"continuous","name":"x0","lo":0.0,"hi":10.0},
  {"type":"continuous","name":"x1","lo":0.0,"hi":10.0},
  {"type":"continuous","name":"x2","lo":0.0,"hi":10.0},
  {"type":"continuous","name":"x3","lo":0.0,"hi":10.0},
  {"type":"continuous","name":"x4","lo":0.0,"hi":10.0},
  {"type":"continuous","name":"x5","lo":0.0,"hi":10.0},
  {"type":"ints","name":"ranks","values":[1,2,4,8,16,32,64,128]}
]}"#;

/// The analytic objective: `1 + Σ w_i ((x_i − c_i)/10)² + 0.02 (l − l*)²`
/// over the continuous values `x_i` and the discrete level index `l`. Its
/// minimum is exactly 1, at `x = c`, `l = l*`; the campaign seed places
/// the centre.
#[derive(Debug, Clone)]
pub struct Bowl {
    center: [f64; 6],
    level: usize,
}

/// Per-dimension weights of the bowl.
const WEIGHTS: [f64; 6] = [0.10, 0.15, 0.20, 0.25, 0.30, 0.35];

impl Bowl {
    /// The bowl for one campaign seed: centres in [2, 8], level in 0..8.
    pub fn new(seed: u64) -> Self {
        let mut center = [0.0; 6];
        for (i, c) in center.iter_mut().enumerate() {
            let u = (splitmix(seed ^ ((i as u64 + 1) << 32)) >> 11) as f64 / (1u64 << 53) as f64;
            *c = 2.0 + 6.0 * u;
        }
        Self {
            center,
            level: (splitmix(seed ^ 0xB0B1) % 8) as usize,
        }
    }

    /// The known minimum.
    pub const MIN: f64 = 1.0;

    /// The objective at `cfg`.
    pub fn value(&self, cfg: &Configuration) -> f64 {
        let mut y = Self::MIN;
        for (i, (c, w)) in self.center.iter().zip(WEIGHTS).enumerate() {
            let d = (cfg.value(i).as_f64() - c) / 10.0;
            y += w * d * d;
        }
        let l = match cfg.value(6) {
            ParamValue::Index(l) => l as f64,
            ParamValue::Real(x) => x,
        };
        y + 0.02 * (l - self.level as f64).powi(2)
    }
}

/// One campaign with the given seed. A traced campaign also replays its
/// fit and selection calls after its timed window.
pub fn campaign(seed: u64, traced: bool) -> Campaign {
    let t0 = Instant::now();
    let spec = match SpaceSpec::from_json(SPEC) {
        Ok(spec) => spec,
        Err(e) => return Campaign::failed(e),
    };
    let space = match spec.build() {
        Ok(space) => space,
        Err(e) => return Campaign::failed(e),
    };
    let parse = t0.elapsed();
    let strategy = if spec.has_continuous() {
        SelectionStrategy::Proposal {
            candidates: CANDIDATES,
        }
    } else {
        SelectionStrategy::Ranking
    };
    let options = TunerOptions::default()
        .with_seed(seed)
        .with_init_samples(INIT)
        .with_strategy(strategy)
        .with_surrogate_mode(SurrogateMode::Incremental);
    let mut tuner = Tuner::new(space.clone(), options);
    let bowl = Bowl::new(seed);
    let policy = RetryPolicy::default().with_max_retries(0).with_seed(seed);
    let mut retrying = RetryingObjective::new(
        |cfg: &Configuration, _attempt: u32| EvalOutcome::Ok(bowl.value(cfg)),
        policy,
    );

    let mut trials: Vec<Trial> = Vec::with_capacity(BUDGET);
    let mut eval_s = 0.0;
    let mut setup_s: Option<f64> = None;
    let mut starts: Vec<(Instant, usize)> = Vec::with_capacity(BUDGET);
    let mut decide_us = Vec::with_capacity(BUDGET);
    let mut stalled = 0usize;
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
        if !progressed {
            break;
        }
        if tuner.history().trials() == before {
            // A duplicate proposal: the tuner skips the evaluation.
            stalled += 1;
            if stalled > 100 * BUDGET {
                break;
            }
        }
    }
    let end = Instant::now();
    let wall_s = end.duration_since(t0).as_secs_f64();

    let (best, best_y) = match tuner.history().best() {
        Some((_, cfg, y)) => (cfg.clone(), y),
        None => return Campaign::failed("every trial failed"),
    };
    let mut check = gate::check(Claim {
        reported_best: best_y,
        evaluator_value: bowl.value(&best),
        known_best: Bowl::MIN,
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
        l.value("cli.spec_parse_us", us(parse));
        l.busy("cli", parse.as_secs_f64());
        l.busy("objective", eval_s);
        l.value("core.stalls", stalled as f64);
        replay::proposal(&space, &trials, INIT, CANDIDATES, seed, &mut l);
        layers = Some(l);
    }
    Campaign {
        wall_s,
        setup_s,
        periods: periods(&starts, end),
        decide_us,
        gap_pct: gap_pct(best_y, Bowl::MIN),
        evals_to_gap1: evals_to_gap1(&ys, Bowl::MIN, BUDGET),
        digest: digest(&trials),
        best: (render_config(&best, &space), best_y),
        check,
        layers,
    }
}

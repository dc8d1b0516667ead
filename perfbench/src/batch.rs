//! `batch-campaign`: the production shape, `hiperbot --app hypre
//! --workers 2 --batch 8 --fail-prob 0.1 --max-retries 2 --checkpoint-out
//! … --checkpoint-every 20 --trace-out …`, with an evaluator that sleeps a
//! fixed 2 ms before returning the simulated value. Constant-liar refits,
//! merges, checkpoint writes and trace emission sit between batches while
//! the workers idle.

use crate::gate::{self, Claim};
use crate::replay::{self, digest, Trial};
use crate::stats::{evals_to_gap1, gap_pct, periods, since, us, Campaign, Layers};
use hiperbot::apps::{hypre, Scale};
use hiperbot::cli::{self, render_config, CliOptions};
use hiperbot::core::{SelectionStrategy, SurrogateMode, Tuner, TunerOptions};
use hiperbot::eval::{outcome_from_sim, BatchExecutor, RetryPolicy};
use hiperbot::obs::{Event, JsonlSink, Recorder};
use hiperbot::perfsim::faults::FaultModel;
use hiperbot::space::Configuration;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Trials per campaign.
pub const BUDGET: usize = 400;
/// Bootstrap trials (the CLI default).
pub const INIT: usize = 20;
/// Configurations per batch.
pub const BATCH: usize = 8;
/// Evaluator threads.
pub const WORKERS: usize = 2;
/// Injected crash probability per attempt.
pub const FAIL_PROB: f64 = 0.1;
/// Retries per failed trial.
pub const MAX_RETRIES: u32 = 2;
/// Trials between checkpoint snapshots. With batches of 8, a cadence of 10
/// writes at every other batch, which puts the median decision gap exactly
/// between the gaps with and without a write; 20 writes at every third.
pub const CHECKPOINT_EVERY: usize = 20;
/// What one evaluation costs.
const EVAL_SLEEP: Duration = Duration::from_millis(2);
/// The CLI's name for the dataset.
const APP: &str = "hypre";

/// Times every event the JSONL sink records (`obs` layer).
struct TimedRecorder {
    inner: JsonlSink,
    ns: AtomicU64,
    events: AtomicU64,
}

impl Recorder for TimedRecorder {
    fn record(&self, event: &Event) {
        let t = Instant::now();
        self.inner.record(event);
        self.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.events.fetch_add(1, Ordering::Relaxed);
    }

    fn flush(&self) {
        let t = Instant::now();
        self.inner.flush();
        self.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// One campaign with the given seed; its trace and checkpoint go to
/// `dir`. A traced campaign also times the trace sink and replays its
/// fit and selection calls after its timed window.
pub fn campaign(seed: u64, traced: bool, dir: &Path) -> Campaign {
    let trace_path = dir.join("campaign-trace.jsonl");
    let checkpoint_path = dir.join("campaign-checkpoint.json");
    let t0 = Instant::now();
    let dataset = hypre::dataset(Scale::Target);
    let dataset_s = since(t0);
    let space = dataset.space().clone();
    let model = FaultModel::new(seed, FAIL_PROB);
    let policy = RetryPolicy::default()
        .with_max_retries(MAX_RETRIES)
        .with_seed(seed);
    let sink = match JsonlSink::create(&trace_path) {
        Ok(sink) => sink,
        Err(e) => return Campaign::failed(format!("cannot create the trace: {e}")),
    };
    let (recorder, timed): (Arc<dyn Recorder>, _) = if traced {
        let timed = Arc::new(TimedRecorder {
            inner: sink,
            ns: AtomicU64::new(0),
            events: AtomicU64::new(0),
        });
        (timed.clone(), Some(timed))
    } else {
        (Arc::new(sink), None)
    };
    let busy_ns = AtomicU64::new(0);
    let evals = AtomicU64::new(0);
    let exec = BatchExecutor::new(
        |cfg: &Configuration, _trial: u64, attempt: u32| {
            let t = Instant::now();
            std::thread::sleep(EVAL_SLEEP);
            let outcome = outcome_from_sim(dataset.evaluate_outcome(cfg, &model, attempt));
            busy_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            evals.fetch_add(1, Ordering::Relaxed);
            outcome
        },
        WORKERS,
    )
    .with_policy(policy)
    .with_recorder(Arc::clone(&recorder));
    let options = TunerOptions::default()
        .with_seed(seed)
        .with_init_samples(INIT)
        .with_strategy(SelectionStrategy::Ranking)
        .with_surrogate_mode(SurrogateMode::Incremental);
    let mut tuner = Tuner::new(space.clone(), options).with_recorder(Arc::clone(&recorder));
    recorder.record(&Event::RunHeader(tuner.run_header()));

    let mut trials: Vec<Trial> = Vec::with_capacity(BUDGET);
    let mut batches: Vec<(usize, usize)> = Vec::new();
    let mut eval_s = 0.0;
    let mut setup_s: Option<f64> = None;
    let mut starts: Vec<(Instant, usize)> = Vec::new();
    let mut last_return: Option<Instant> = None;
    let mut decide_us = Vec::new();
    let mut dispatch_us = Vec::new();
    let mut suggest_us = Vec::new();
    let mut merge_us = Vec::new();
    let mut checkpoint_us = Vec::new();
    let mut last_checkpoint = 0usize;
    let mut check: Result<(), String> = Ok(());
    let write_checkpoint = |tuner: &Tuner, checkpoint_us: &mut Vec<f64>| {
        let t = Instant::now();
        let saved = tuner.checkpoint().save(&checkpoint_path);
        checkpoint_us.push(us(t.elapsed()));
        recorder.record(&Event::CheckpointWritten {
            trials: tuner.history().trials() as u64,
            observations: tuner.history().len() as u64,
            failures: tuner.history().n_failures() as u64,
        });
        saved.map_err(|e| format!("checkpoint write failed: {e}"))
    };
    while tuner.history().trials() < BUDGET {
        let before = tuner.history().trials();
        let k = BATCH.min(BUDGET - before);
        let step_start = Instant::now();
        // When this step first entered the evaluator.
        let mut entered = None;
        let progressed = tuner.step_batch_fallible(k, |cfgs, base| {
            let enter = Instant::now();
            entered.get_or_insert(enter);
            let base = base as usize;
            if base >= INIT {
                batches.push((base, cfgs.len()));
                setup_s.get_or_insert(enter.duration_since(t0).as_secs_f64() - eval_s);
                starts.push((enter, cfgs.len()));
                if let Some(r) = last_return {
                    decide_us.push(us(enter.duration_since(r)));
                }
            }
            let busy_before = busy_ns.load(Ordering::Relaxed);
            let outcomes = exec.evaluate_batch(cfgs, base as u64);
            let ret = Instant::now();
            let wall = ret.duration_since(enter);
            eval_s += wall.as_secs_f64();
            let busy = (busy_ns.load(Ordering::Relaxed) - busy_before) as f64 / 1e3;
            dispatch_us.push(us(wall) - busy / WORKERS.min(cfgs.len()) as f64);
            for (cfg, o) in cfgs.iter().zip(&outcomes) {
                trials.push(Trial {
                    cfg: cfg.clone(),
                    y: o.clone().normalized().value(),
                });
            }
            last_return = Some(ret);
            outcomes
        });
        let step_end = Instant::now();
        if let (true, Some(entered), Some(returned)) = (before >= INIT, entered, last_return) {
            suggest_us.push(us(entered.duration_since(step_start)));
            merge_us.push(us(step_end.duration_since(returned)));
        }
        if tuner.history().trials() - last_checkpoint >= CHECKPOINT_EVERY {
            check = check.and(write_checkpoint(&tuner, &mut checkpoint_us));
            last_checkpoint = tuner.history().trials();
        }
        if !progressed || tuner.history().trials() == before {
            break;
        }
    }
    if tuner.history().trials() > last_checkpoint {
        check = check.and(write_checkpoint(&tuner, &mut checkpoint_us));
    }
    let Some((_, best, best_y)) = tuner.history().best() else {
        return Campaign::failed("every trial failed");
    };
    let best = best.clone();
    recorder.record(&Event::RunFinished {
        evaluations: tuner.history().trials() as u64,
        best_objective: best_y,
    });
    recorder.flush();
    let end = Instant::now();
    let wall_s = end.duration_since(t0).as_secs_f64();

    let known = dataset.best().1;
    check = check.and(gate::check(Claim {
        reported_best: best_y,
        evaluator_value: dataset.evaluate(&best),
        known_best: known,
    }));
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
    let file_len = |p: &Path| std::fs::metadata(p).map_or(0.0, |m| m.len() as f64);
    let mut layers = None;
    if let Some(timed) = timed {
        let mut l = Layers::default();
        l.value("apps.dataset_s", dataset_s);
        l.value("apps.evals", evals.load(Ordering::Relaxed) as f64);
        l.busy("apps", dataset_s);
        l.busy("eval", eval_s);
        let busy_s = busy_ns.load(Ordering::Relaxed) as f64 / 1e9;
        l.value(
            "eval.worker_idle_frac",
            1.0 - busy_s / (WORKERS as f64 * wall_s),
        );
        l.value("eval.retries", exec.retries() as f64);
        l.value("eval.trials_failed", tuner.history().n_failures() as f64);
        for v in dispatch_us {
            l.sample("eval.dispatch_us", v);
        }
        for v in suggest_us {
            l.sample("core.suggest_batch_us", v);
        }
        l.busy("core.merge", merge_us.iter().sum::<f64>() / 1e6);
        for v in merge_us {
            l.sample("core.merge_us", v);
        }
        l.value("core.stalls", tuner.stalls() as f64);
        l.busy("core.checkpoint", checkpoint_us.iter().sum::<f64>() / 1e6);
        for v in checkpoint_us {
            l.sample("core.checkpoint_write_us", v);
        }
        l.value("core.checkpoint_bytes", file_len(&checkpoint_path));
        let record_ns = timed.ns.load(Ordering::Relaxed) as f64;
        l.value("obs.record_us.total", record_ns / 1e3);
        l.value("obs.events", timed.events.load(Ordering::Relaxed) as f64);
        l.value("obs.trace_bytes", file_len(&trace_path));
        l.busy("obs", record_ns / 1e9);
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

/// The campaign's best and final checkpoint must be what the CLI produces
/// with the same flags and seed.
pub fn cli_parity(seed: u64, first: &Campaign, dir: &Path) -> Result<(), String> {
    let checkpoint = dir.join("cli-checkpoint.json");
    let options = CliOptions {
        app: Some(APP.into()),
        budget: BUDGET,
        seed,
        init_samples: INIT,
        workers: WORKERS,
        batch: BATCH,
        fail_prob: FAIL_PROB,
        max_retries: MAX_RETRIES,
        checkpoint_out: Some(checkpoint.display().to_string()),
        checkpoint_every: CHECKPOINT_EVERY,
        trace_out: Some(dir.join("cli-trace.jsonl").display().to_string()),
        ..CliOptions::default()
    };
    gate::same_best(&cli::run(&options)?, &first.best)?;
    // The rerun of `first`'s seed left its final checkpoint in `dir`.
    let ours = std::fs::read(dir.join("campaign-checkpoint.json")).map_err(|e| e.to_string())?;
    let theirs = std::fs::read(&checkpoint).map_err(|e| e.to_string())?;
    if ours == theirs {
        Ok(())
    } else {
        Err("final checkpoint differs from the CLI's".into())
    }
}

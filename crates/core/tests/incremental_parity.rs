//! The incremental surrogate engine's bit-identity contract, pinned from
//! two directions:
//!
//! - **Engine level** — random interleavings of successes, quarantined
//!   failures, and constant-liar fantasy push/pop must leave the engine's
//!   threshold, densities, and score columns bit-identical to a
//!   from-scratch [`TpeSurrogate`] fit over the same data after *every*
//!   operation ([`IncrementalSurrogate::assert_parity`]).
//! - **Tuner level** — every model-driven step of a fault-injected tuner,
//!   serial and batched, must pick the configurations, and record the
//!   `SurrogateFit` and `SelectionScored` statistics, that the from-scratch
//!   constant-liar oracle (`common::oracle::ranking_batch_from_scratch`)
//!   computes on the same history.
//!
//! CI runs this suite at several `RAYON_NUM_THREADS` values.
//!
//! [`TpeSurrogate`]: hiperbot_core::TpeSurrogate

mod common;

use common::oracle::{ranking_batch_from_scratch, OraclePick};
use hiperbot_core::surrogate::SurrogateOptions;
use hiperbot_core::{EvalOutcome, IncrementalSurrogate, TransferPrior, Tuner, TunerOptions};
use hiperbot_obs::{Event, MemoryRecorder};
use hiperbot_space::sampling::sample_distinct;
use hiperbot_space::{Configuration, Domain, ParamDef, ParameterSpace};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// A random fully discrete space of 1–3 parameters with 2–5 values each.
fn arb_discrete_space() -> impl Strategy<Value = ParameterSpace> {
    proptest::collection::vec(2usize..=5, 1..=3).prop_map(|cards| {
        let mut b = ParameterSpace::builder();
        for (i, c) in cards.into_iter().enumerate() {
            let vals: Vec<i64> = (0..c as i64).collect();
            b = b.param(ParamDef::new(format!("p{i}"), Domain::discrete_ints(&vals)));
        }
        b.build().expect("valid")
    })
}

/// A deterministic objective keyed on the configuration, quantized hard so
/// duplicate values (threshold ties, degenerate splits) are common.
fn tied_objective(cfg: &Configuration, salt: u64) -> f64 {
    let mut h = salt ^ 0x9E37_79B9_7F4A_7C15;
    for v in cfg.values() {
        h = h
            .wrapping_add(v.as_f64().to_bits())
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 29;
    }
    1.0 + (h % 8) as f64 / 2.0
}

/// One randomized engine op: observe / fail / fantasy-push / pop.
type Op = (u8, u64, u64);

/// Drives `ops` through an engine and a mirror (configs, objectives,
/// failures), asserting full-fit parity after every single operation.
fn drive_ops(
    space: &ParameterSpace,
    options: &SurrogateOptions,
    prior: Option<(&TransferPrior, f64)>,
    ops: &[Op],
    salt: u64,
) {
    let pool = space.enumerate();
    let mut engine = IncrementalSurrogate::new(space, options, prior);
    let mut configs: Vec<Configuration> = Vec::new();
    let mut objectives: Vec<f64> = Vec::new();
    let mut failed: Vec<Configuration> = Vec::new();
    for &(kind, pick, tweak) in ops {
        let cfg = pool[(pick as usize) % pool.len()].clone();
        match kind {
            // A successful observation.
            0 => {
                let y = tied_objective(&cfg, salt.wrapping_add(tweak));
                engine.observe(&cfg, y);
                configs.push(cfg);
                objectives.push(y);
            }
            // A quarantined failure.
            1 => {
                engine.observe_failure(&cfg);
                failed.push(cfg);
            }
            // A constant-liar fantasy at the current threshold.
            2 => {
                if !engine.is_empty() {
                    let liar = engine.threshold();
                    engine.observe(&cfg, liar);
                    configs.push(cfg);
                    objectives.push(liar);
                }
            }
            // Undo the most recent observation (fantasy eviction).
            _ => {
                if !engine.is_empty() {
                    engine.pop_observation();
                    configs.pop();
                    objectives.pop();
                }
            }
        }
        engine.assert_parity(space, &configs, &objectives, &failed, prior);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random interleavings of successes, failures, and fantasy push/pop
    /// keep the engine bit-identical to a from-scratch fit at every step.
    #[test]
    fn random_op_sequences_stay_bit_identical(
        space in arb_discrete_space(),
        ops in proptest::collection::vec((0u8..4, 0u64..10_000, 0u64..10_000), 1..30),
        salt in 0u64..500,
    ) {
        drive_ops(&space, &SurrogateOptions::default(), None, &ops, salt);
    }

    /// The same contract holds on mixed discrete + continuous spaces
    /// (histogram deltas and KDE point insertion/removal together).
    #[test]
    fn mixed_space_op_sequences_stay_bit_identical(
        ops in proptest::collection::vec((0u8..4, 0u64..10_000, 0u64..10_000), 1..25),
        salt in 0u64..500,
    ) {
        let space = ParameterSpace::builder()
            .param(ParamDef::new("d", Domain::discrete_ints(&[0, 1, 2])))
            .param(ParamDef::new("x", Domain::continuous(-1.0, 1.0)))
            .build()
            .unwrap();
        // The discrete-only pool indexing in drive_ops needs an enumerable
        // space; enumerate a discrete proxy and graft a continuous value.
        let proxy = ParameterSpace::builder()
            .param(ParamDef::new("d", Domain::discrete_ints(&[0, 1, 2])))
            .build()
            .unwrap();
        let pool = proxy.enumerate();
        let opts = SurrogateOptions::default();
        let mut engine = IncrementalSurrogate::new(&space, &opts, None);
        let mut configs: Vec<Configuration> = Vec::new();
        let mut objectives: Vec<f64> = Vec::new();
        let mut failed: Vec<Configuration> = Vec::new();
        for &(kind, pick, tweak) in &ops {
            let d = pool[(pick as usize) % pool.len()].value(0).index();
            let x = -1.0 + 2.0 * ((tweak % 101) as f64 / 100.0);
            let cfg = Configuration::new(vec![
                hiperbot_space::ParamValue::Index(d),
                hiperbot_space::ParamValue::Real(x),
            ]);
            match kind {
                0 => {
                    let y = tied_objective(&cfg, salt.wrapping_add(tweak));
                    engine.observe(&cfg, y);
                    configs.push(cfg);
                    objectives.push(y);
                }
                1 => {
                    engine.observe_failure(&cfg);
                    failed.push(cfg);
                }
                2 => {
                    if !engine.is_empty() {
                        let liar = engine.threshold();
                        engine.observe(&cfg, liar);
                        configs.push(cfg);
                        objectives.push(liar);
                    }
                }
                _ => {
                    if !engine.is_empty() {
                        engine.pop_observation();
                        configs.pop();
                        objectives.pop();
                    }
                }
            }
            engine.assert_parity(&space, &configs, &objectives, &failed, None);
        }
    }

    /// Parity with a transfer-learning prior mixed in: the engine must
    /// reproduce the mixed densities bit-for-bit too.
    #[test]
    fn op_sequences_with_a_transfer_prior_stay_bit_identical(
        space in arb_discrete_space(),
        ops in proptest::collection::vec((0u8..4, 0u64..10_000, 0u64..10_000), 1..20),
        salt in 0u64..500,
        src_seed in 0u64..500,
    ) {
        let opts = SurrogateOptions::default();
        let mut rng = ChaCha8Rng::seed_from_u64(src_seed);
        let pool_len = space.product_cardinality().unwrap();
        let src_configs = sample_distinct(&space, 6.min(pool_len), &mut rng);
        let src_objs: Vec<f64> = src_configs
            .iter()
            .map(|c| tied_objective(c, src_seed))
            .collect();
        let prior =
            TransferPrior::from_source(&space, &src_configs, &src_objs, opts.alpha, opts.pseudo_count);
        drive_ops(&space, &opts, Some((&prior, 0.5)), &ops, salt);
    }
}

/// A 3-D discrete space (6·6·4 = 144 configurations).
fn space() -> ParameterSpace {
    let six: Vec<i64> = (0..6).collect();
    let four: Vec<i64> = (0..4).collect();
    ParameterSpace::builder()
        .param(ParamDef::new("x", Domain::discrete_ints(&six)))
        .param(ParamDef::new("y", Domain::discrete_ints(&six)))
        .param(ParamDef::new("z", Domain::discrete_ints(&four)))
        .build()
        .unwrap()
}

/// A deterministic fallible objective: configurations on the x == 2 plane
/// crash, everything else measures cleanly (with frequent ties).
fn fallible(cfg: &Configuration) -> EvalOutcome {
    if cfg.value(0).index() == 2 {
        EvalOutcome::Failed {
            reason: "simulated crash".to_string(),
        }
    } else {
        EvalOutcome::Ok(tied_objective(cfg, 17))
    }
}

fn tuner(seed: u64) -> Tuner {
    Tuner::new(
        space(),
        TunerOptions::default().with_seed(seed).with_init_samples(8),
    )
}

/// The `SurrogateFit` and `SelectionScored` statistics of one pick, as the
/// tuner records them: `(n_good, n_bad, threshold bits, best_ei bits)`.
type PickStats = (u64, u64, u64, u64);

/// Pairs each `SurrogateFit` in `events` with the `SelectionScored` that
/// follows it.
fn recorded_stats(events: &[Event]) -> Vec<PickStats> {
    let mut fit = None;
    let mut out = Vec::new();
    for event in events {
        match event {
            Event::SurrogateFit {
                n_good,
                n_bad,
                threshold,
                ..
            } => fit = Some((*n_good, *n_bad, threshold.to_bits())),
            Event::SelectionScored { best_ei, .. } => {
                let (n_good, n_bad, threshold) =
                    fit.take().expect("a fit precedes every selection");
                out.push((n_good, n_bad, threshold, best_ei.to_bits()));
            }
            _ => {}
        }
    }
    out
}

fn oracle_stats(picks: &[OraclePick]) -> Vec<PickStats> {
    picks
        .iter()
        .map(|p| {
            (
                p.n_good as u64,
                p.n_bad as u64,
                p.threshold.to_bits(),
                p.log_ei.to_bits(),
            )
        })
        .collect()
}

/// Drives a traced tuner with `step_batch_fallible(k, ..)` on [`fallible`]
/// until `budget` trials are spent, and checks every model-driven step
/// against [`ranking_batch_from_scratch`] on the history the step starts
/// from: same picks in the same order, same per-pick fit and selection
/// statistics, bit for bit. Returns the number of steps checked.
fn assert_steps_match_the_oracle(seed: u64, k: usize, budget: usize) -> usize {
    let recorder = Arc::new(MemoryRecorder::new());
    let mut t = tuner(seed).with_recorder(recorder.clone());
    let options = SurrogateOptions::default();
    let mut checked = 0;
    // The first call bootstraps.
    assert!(t.step_batch_fallible(k, |cfgs, _| cfgs.iter().map(fallible).collect()));
    while t.history().trials() < budget {
        let oracle = (!t.history().is_empty())
            .then(|| ranking_batch_from_scratch(t.space(), t.history(), &options, None, k));
        let before = recorder.events().len();
        let mut picked: Vec<Configuration> = Vec::new();
        let progressed = t.step_batch_fallible(k, |cfgs, _| {
            picked = cfgs.to_vec();
            cfgs.iter().map(fallible).collect()
        });
        let Some(oracle) = oracle else {
            // Every trial so far failed: a uniform restart, not a model pick.
            assert!(progressed, "seed {seed} k {k}: recovery found nothing");
            continue;
        };
        let at = t.history().trials();
        let expected: Vec<Configuration> = oracle.iter().map(|p| p.config.clone()).collect();
        assert_eq!(picked, expected, "seed {seed} k {k} trial {at}: picks");
        assert_eq!(
            recorded_stats(&recorder.events()[before..]),
            oracle_stats(&oracle),
            "seed {seed} k {k} trial {at}: (n_good, n_bad, threshold, best_ei)"
        );
        checked += 1;
        if !progressed {
            break; // pool exhausted
        }
    }
    checked
}

#[test]
fn batched_steps_match_the_from_scratch_oracle_with_faults() {
    for (seed, k) in [(3u64, 1usize), (11, 4), (42, 6)] {
        let checked = assert_steps_match_the_oracle(seed, k, 36);
        assert!(
            checked >= 4,
            "seed {seed} k {k}: only {checked} model steps"
        );
    }
}

#[test]
fn serial_steps_match_the_from_scratch_oracle() {
    for seed in [5u64, 19] {
        let checked = assert_steps_match_the_oracle(seed, 1, 38);
        assert!(checked >= 20, "seed {seed}: only {checked} model steps");
    }
}

#[test]
fn churn_counters_track_engine_work() {
    let mut t = tuner(7);
    t.run_batch_fallible(32, 4, |cfgs, _| cfgs.iter().map(fallible).collect());
    // The engine lags the history by the final batch's merged outcomes;
    // one more suggestion syncs it before the counters are read.
    t.suggest();
    let stats = t.churn_stats().expect("incremental engine was built");
    // Every real observation and every fantasy was a delta insert; every
    // fantasy was popped back off; failures were folded in.
    assert!(stats.inserts >= t.history().len() as u64);
    assert_eq!(
        stats.inserts - stats.removes,
        t.history().len() as u64,
        "pops must exactly cancel fantasy pushes"
    );
    assert_eq!(stats.failures, t.history().failures().len() as u64);
}

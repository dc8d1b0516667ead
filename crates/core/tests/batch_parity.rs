//! The batch engine's determinism contract, regression-pinned:
//!
//! - The k = 1 driver (`run_fallible`, and `run_batch_fallible(budget, 1,
//!   ..)`) reproduces the recorded campaigns of the dedicated serial
//!   driver it replaced — same history, same failures, same trace event
//!   sequence (timings excluded), same next pick.
//! - `suggest_batch(1)` is exactly `suggest()`.
//! - Constant-liar fantasies never leak into the real history.

mod common;

use common::{assert_reproduces, SerialReference};
use hiperbot_core::{EvalOutcome, Tuner, TunerOptions};
use hiperbot_obs::MemoryRecorder;
use hiperbot_space::{Configuration, Domain, ParamDef, ParameterSpace};
use std::sync::Arc;

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

fn objective(cfg: &Configuration) -> f64 {
    let x = cfg.value(0).index() as f64;
    let y = cfg.value(1).index() as f64;
    let z = cfg.value(2).index() as f64;
    (x - 4.0).powi(2) + (y - 1.0).powi(2) + 0.5 * (z - 2.0).powi(2) + 1.0
}

/// A deterministic fallible objective: configurations on the x == 2 plane
/// crash, everything else measures cleanly.
fn fallible(cfg: &Configuration) -> EvalOutcome {
    if cfg.value(0).index() == 2 {
        EvalOutcome::Failed {
            reason: "simulated crash".to_string(),
        }
    } else {
        EvalOutcome::Ok(objective(cfg))
    }
}

fn tuner(seed: u64) -> Tuner {
    Tuner::new(
        space(),
        TunerOptions::default().with_seed(seed).with_init_samples(8),
    )
}

/// The full observable state of a finished run, for equality assertions.
fn fingerprint(t: &Tuner) -> (Vec<String>, Vec<f64>, Vec<String>, usize) {
    let configs = t
        .history()
        .configs()
        .iter()
        .map(|c| format!("{c:?}"))
        .collect();
    let failures = t
        .history()
        .failures()
        .iter()
        .map(|f| format!("{:?}:{}", f.config, f.reason))
        .collect();
    (
        configs,
        t.history().objectives().to_vec(),
        failures,
        t.history().trials(),
    )
}

/// `run_fallible(40, fallible)` on `tuner(seed)` under the dedicated
/// serial driver, one entry per seed.
#[rustfmt::skip]
const SERIAL_REFERENCE: [SerialReference; 3] = [
    SerialReference {
        seed: 3,
        trials: 40,
        failures: 4,
        stalls: 0,
        objective_bits: &[
            0x4027000000000000, 0x4032800000000000, 0x401a000000000000, 0x4024000000000000,
            0x403a800000000000, 0x4032000000000000, 0x4035800000000000, 0x4008000000000000,
            0x401c000000000000, 0x4010000000000000, 0x4014000000000000, 0x4010000000000000,
            0x4014000000000000, 0x4028000000000000, 0x3ff0000000000000, 0x3ff8000000000000,
            0x4031000000000000, 0x4004000000000000, 0x4025000000000000, 0x4000000000000000,
            0x4026000000000000, 0x4031800000000000, 0x4010000000000000, 0x4004000000000000,
            0x4000000000000000, 0x4014000000000000, 0x4024000000000000, 0x4032800000000000,
            0x4027000000000000, 0x4031000000000000, 0x4004000000000000, 0x4000000000000000,
            0x4008000000000000, 0x4000000000000000, 0x4008000000000000, 0x4004000000000000,
        ],
        configs: &[
            "[Index(3), Index(4), Index(3)]", "[Index(3), Index(5), Index(1)]", "[Index(3), Index(3), Index(1)]",
            "[Index(1), Index(1), Index(2)]", "[Index(1), Index(5), Index(3)]", "[Index(0), Index(2), Index(2)]",
            "[Index(0), Index(3), Index(1)]", "[Index(4), Index(1), Index(0)]", "[Index(4), Index(3), Index(0)]",
            "[Index(5), Index(1), Index(0)]", "[Index(5), Index(0), Index(0)]", "[Index(4), Index(2), Index(0)]",
            "[Index(5), Index(2), Index(0)]", "[Index(4), Index(4), Index(0)]", "[Index(4), Index(1), Index(2)]",
            "[Index(4), Index(1), Index(3)]", "[Index(0), Index(1), Index(2)]", "[Index(4), Index(0), Index(3)]",
            "[Index(4), Index(4), Index(3)]", "[Index(4), Index(0), Index(2)]", "[Index(1), Index(0), Index(2)]",
            "[Index(4), Index(5), Index(3)]", "[Index(4), Index(0), Index(0)]", "[Index(4), Index(2), Index(3)]",
            "[Index(4), Index(2), Index(2)]", "[Index(4), Index(3), Index(2)]", "[Index(4), Index(4), Index(2)]",
            "[Index(0), Index(2), Index(3)]", "[Index(1), Index(0), Index(3)]", "[Index(4), Index(5), Index(2)]",
            "[Index(4), Index(0), Index(1)]", "[Index(3), Index(1), Index(2)]", "[Index(3), Index(2), Index(2)]",
            "[Index(5), Index(1), Index(2)]", "[Index(5), Index(0), Index(2)]", "[Index(3), Index(1), Index(3)]",
        ],
        trace_fnv: 0xb5bc770524ef32ee,
        next_suggestion: Some("[Index(5), Index(2), Index(2)]"),
    },
    SerialReference {
        seed: 11,
        trials: 40,
        failures: 4,
        stalls: 0,
        objective_bits: &[
            0x4004000000000000, 0x4024000000000000, 0x4032800000000000, 0x403a000000000000,
            0x4027000000000000, 0x4008000000000000, 0x4010000000000000, 0x400c000000000000,
            0x401a000000000000, 0x402a000000000000, 0x4004000000000000, 0x4004000000000000,
            0x4016000000000000, 0x4004000000000000, 0x403a800000000000, 0x4004000000000000,
            0x4034000000000000, 0x4016000000000000, 0x4032800000000000, 0x4010000000000000,
            0x4032800000000000, 0x3ff8000000000000, 0x4025000000000000, 0x4010000000000000,
            0x4000000000000000, 0x4004000000000000, 0x4018000000000000, 0x3ff0000000000000,
            0x4031000000000000, 0x4000000000000000, 0x4026000000000000, 0x4032000000000000,
            0x4008000000000000, 0x4008000000000000, 0x4004000000000000, 0x4014000000000000,
        ],
        configs: &[
            "[Index(4), Index(2), Index(1)]", "[Index(1), Index(1), Index(2)]", "[Index(0), Index(2), Index(1)]",
            "[Index(1), Index(5), Index(2)]", "[Index(1), Index(2), Index(3)]", "[Index(3), Index(2), Index(2)]",
            "[Index(4), Index(0), Index(0)]", "[Index(3), Index(2), Index(1)]", "[Index(5), Index(3), Index(1)]",
            "[Index(3), Index(4), Index(0)]", "[Index(4), Index(2), Index(3)]", "[Index(4), Index(0), Index(3)]",
            "[Index(4), Index(3), Index(3)]", "[Index(4), Index(0), Index(1)]", "[Index(0), Index(4), Index(1)]",
            "[Index(5), Index(1), Index(1)]", "[Index(0), Index(2), Index(0)]", "[Index(4), Index(3), Index(1)]",
            "[Index(5), Index(5), Index(1)]", "[Index(4), Index(2), Index(0)]", "[Index(0), Index(0), Index(1)]",
            "[Index(4), Index(1), Index(1)]", "[Index(1), Index(1), Index(1)]", "[Index(3), Index(1), Index(0)]",
            "[Index(5), Index(1), Index(2)]", "[Index(5), Index(1), Index(3)]", "[Index(5), Index(3), Index(2)]",
            "[Index(4), Index(1), Index(2)]", "[Index(0), Index(1), Index(2)]", "[Index(3), Index(1), Index(2)]",
            "[Index(3), Index(4), Index(2)]", "[Index(3), Index(5), Index(2)]", "[Index(4), Index(1), Index(0)]",
            "[Index(5), Index(0), Index(2)]", "[Index(3), Index(1), Index(1)]", "[Index(4), Index(3), Index(2)]",
        ],
        trace_fnv: 0x98aa5cebb2620505,
        next_suggestion: Some("[Index(4), Index(1), Index(3)]"),
    },
    SerialReference {
        seed: 42,
        trials: 40,
        failures: 3,
        stalls: 0,
        objective_bits: &[
            0x4027000000000000, 0x4035000000000000, 0x4027000000000000, 0x4010000000000000,
            0x4031800000000000, 0x402d000000000000, 0x4016000000000000, 0x3ff8000000000000,
            0x4033000000000000, 0x4004000000000000, 0x400c000000000000, 0x4000000000000000,
            0x4026000000000000, 0x4004000000000000, 0x3ff0000000000000, 0x4031000000000000,
            0x4031000000000000, 0x4024000000000000, 0x4000000000000000, 0x4008000000000000,
            0x4000000000000000, 0x4025000000000000, 0x4008000000000000, 0x4014000000000000,
            0x4004000000000000, 0x4000000000000000, 0x4031800000000000, 0x4008000000000000,
            0x4008000000000000, 0x4008000000000000, 0x4024000000000000, 0x3ff8000000000000,
            0x4004000000000000, 0x4004000000000000, 0x4004000000000000, 0x4004000000000000,
            0x4032000000000000,
        ],
        configs: &[
            "[Index(1), Index(0), Index(3)]", "[Index(0), Index(3), Index(2)]", "[Index(5), Index(4), Index(3)]",
            "[Index(4), Index(2), Index(0)]", "[Index(0), Index(1), Index(3)]", "[Index(1), Index(3), Index(3)]",
            "[Index(4), Index(3), Index(1)]", "[Index(4), Index(1), Index(1)]", "[Index(4), Index(5), Index(0)]",
            "[Index(3), Index(1), Index(1)]", "[Index(3), Index(0), Index(1)]", "[Index(3), Index(1), Index(2)]",
            "[Index(3), Index(4), Index(2)]", "[Index(5), Index(1), Index(1)]", "[Index(4), Index(1), Index(2)]",
            "[Index(4), Index(5), Index(2)]", "[Index(0), Index(1), Index(2)]", "[Index(1), Index(1), Index(2)]",
            "[Index(4), Index(0), Index(2)]", "[Index(3), Index(0), Index(2)]", "[Index(4), Index(2), Index(2)]",
            "[Index(4), Index(4), Index(1)]", "[Index(3), Index(2), Index(2)]", "[Index(4), Index(3), Index(2)]",
            "[Index(4), Index(0), Index(1)]", "[Index(5), Index(1), Index(2)]", "[Index(4), Index(5), Index(1)]",
            "[Index(5), Index(2), Index(2)]", "[Index(5), Index(0), Index(2)]", "[Index(4), Index(1), Index(0)]",
            "[Index(4), Index(4), Index(2)]", "[Index(4), Index(1), Index(3)]", "[Index(5), Index(1), Index(3)]",
            "[Index(4), Index(2), Index(3)]", "[Index(3), Index(1), Index(3)]", "[Index(4), Index(0), Index(3)]",
            "[Index(0), Index(2), Index(2)]",
        ],
        trace_fnv: 0xb6f593fcf9a1a7eb,
        next_suggestion: Some("[Index(5), Index(1), Index(0)]"),
    },
];

#[test]
fn batch_of_one_is_bit_identical_to_the_serial_tuner() {
    for reference in &SERIAL_REFERENCE {
        let serial_rec = Arc::new(MemoryRecorder::new());
        let mut serial = tuner(reference.seed).with_recorder(serial_rec.clone());
        let serial_best = serial.run_fallible(40, fallible).unwrap();
        assert_eq!(serial_best.evaluations, reference.trials);
        assert_reproduces(&mut serial, &serial_rec, reference);

        let batch_rec = Arc::new(MemoryRecorder::new());
        let mut batch = tuner(reference.seed).with_recorder(batch_rec.clone());
        batch.run_batch_fallible(40, 1, |cfgs, _base| cfgs.iter().map(fallible).collect());
        assert_reproduces(&mut batch, &batch_rec, reference);
    }
}

/// A run whose first five evaluations crash, under the dedicated serial
/// driver: the 3-sample bootstrap fails, so trials 3 and 4 come from
/// uniform recovery restarts (and fail too) before trial 5 recovers.
#[rustfmt::skip]
const RECOVERY_REFERENCE: SerialReference = SerialReference {
    seed: 5,
    trials: 20,
    failures: 5,
    stalls: 0,
    objective_bits: &[
        0x4032000000000000, 0x4034000000000000, 0x4032000000000000, 0x4018000000000000,
        0x401a000000000000, 0x4018000000000000, 0x4014000000000000, 0x4028000000000000,
        0x4016000000000000, 0x3ff8000000000000, 0x3ff8000000000000, 0x4016000000000000,
        0x3ff0000000000000, 0x4031800000000000, 0x4004000000000000,
    ],
    configs: &[
        "[Index(0), Index(2), Index(2)]", "[Index(0), Index(2), Index(0)]", "[Index(0), Index(0), Index(2)]",
        "[Index(2), Index(2), Index(2)]", "[Index(2), Index(2), Index(1)]", "[Index(2), Index(0), Index(2)]",
        "[Index(2), Index(1), Index(2)]", "[Index(1), Index(1), Index(0)]", "[Index(2), Index(1), Index(1)]",
        "[Index(4), Index(1), Index(1)]", "[Index(4), Index(1), Index(3)]", "[Index(4), Index(3), Index(3)]",
        "[Index(4), Index(1), Index(2)]", "[Index(4), Index(5), Index(1)]", "[Index(5), Index(1), Index(3)]",
    ],
    trace_fnv: 0x23da51164e502281,
    next_suggestion: Some("[Index(4), Index(0), Index(1)]"),
};

#[test]
fn all_failure_recovery_matches_the_serial_driver() {
    let rec = Arc::new(MemoryRecorder::new());
    let mut t = Tuner::new(
        space(),
        TunerOptions::default()
            .with_seed(RECOVERY_REFERENCE.seed)
            .with_init_samples(3),
    )
    .with_recorder(rec.clone());
    let mut calls = 0usize;
    t.run_fallible(20, |cfg| {
        calls += 1;
        if calls <= 5 {
            EvalOutcome::Failed {
                reason: "warm-up crash".to_string(),
            }
        } else {
            EvalOutcome::Ok(objective(cfg))
        }
    })
    .unwrap();
    assert_reproduces(&mut t, &rec, &RECOVERY_REFERENCE);
}

#[test]
fn suggest_batch_of_one_equals_suggest() {
    let mut t = tuner(7);
    t.run(12, objective);
    let single = t.suggest().expect("pool not exhausted");
    let batch = t.suggest_batch(1);
    assert_eq!(batch, vec![single]);
}

#[test]
fn constant_liar_fantasies_never_leak_into_history() {
    let mut t = tuner(5);
    t.run(12, objective);
    let before = fingerprint(&t);
    let picks = t.suggest_batch(6);
    assert_eq!(picks.len(), 6);
    assert_eq!(
        fingerprint(&t),
        before,
        "suggestion must not mutate history"
    );
    // Picks are distinct and all unseen.
    for (i, a) in picks.iter().enumerate() {
        assert!(!t.history().contains(a), "pick {i} already evaluated");
        for b in &picks[..i] {
            assert_ne!(a, b, "duplicate pick in one batch");
        }
    }
}

#[test]
fn liar_diversifies_the_batch_beyond_top_k_of_one_fit() {
    // The first constant-liar pick is the plain argmax; later picks react
    // to the fantasies. Sanity-check the first pick agrees with suggest()
    // while the batch still covers k distinct configurations.
    let mut t = tuner(19);
    t.run(16, objective);
    let single = t.suggest().expect("pool not exhausted");
    let picks = t.suggest_batch(4);
    assert_eq!(picks[0], single, "first pick is the serial argmax");
    assert_eq!(picks.len(), 4);
}

#[test]
fn batch_run_preserves_trial_budget_with_failures() {
    for batch in [1usize, 3, 4, 8] {
        let mut t = tuner(23);
        let best =
            t.run_batch_fallible(30, batch, |cfgs, _base| cfgs.iter().map(fallible).collect());
        assert!(best.is_some(), "batch {batch}");
        assert_eq!(
            t.history().trials(),
            30,
            "batch {batch}: budget counts successes + failures exactly"
        );
        assert_eq!(
            t.history().len() + t.history().failures().len(),
            30,
            "batch {batch}"
        );
    }
}

#[test]
fn batch_run_exhausts_small_pools_gracefully() {
    let two: Vec<i64> = (0..2).collect();
    let small = ParameterSpace::builder()
        .param(ParamDef::new("a", Domain::discrete_ints(&two)))
        .param(ParamDef::new("b", Domain::discrete_ints(&two)))
        .build()
        .unwrap();
    let mut t = Tuner::new(
        small,
        TunerOptions::default().with_seed(1).with_init_samples(2),
    );
    // Budget larger than the 4-configuration pool: the run must stop at 4
    // trials, not loop or panic, even with a batch wider than the pool.
    let best = t.run_batch_fallible(10, 8, |cfgs, _base| {
        cfgs.iter()
            .map(|c| EvalOutcome::Ok(c.value(0).index() as f64 + 0.5))
            .collect()
    });
    assert!(best.is_some());
    assert_eq!(t.history().trials(), 4);
}

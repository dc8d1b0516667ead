//! Measures the incremental surrogate engine against from-scratch refits
//! and writes `BENCH_incremental.json` at the workspace root.
//!
//! Two measurements per history size (100 / 1 000 / 10 000):
//!
//! - **Refit path** — ns per iteration of a full `fit_with_failures`
//!   (scratch-buffered) plus score-table construction, the work the old
//!   tuner did every model-driven step.
//! - **Delta path** — ns per delta update of the persistent
//!   [`IncrementalSurrogate`]: one observe + one pop (the constant-liar
//!   fantasy cycle), timed as a pair and halved.
//!
//! Bit-identity is re-asserted in-bench (`assert_parity` at every history
//! size) before anything is timed. Run with
//! `cargo run --release -p hiperbot-bench --bin bench_incremental`.

use hiperbot_bench::{host_meta, pin_threads, write_bench_json, HostMeta};
use hiperbot_core::surrogate::{FitScratch, SurrogateOptions, TpeSurrogate};
use hiperbot_core::IncrementalSurrogate;
use hiperbot_space::{Configuration, Domain, ParamDef, ParameterSpace};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

const TRIALS: usize = 9;
const HISTORY_SIZES: [usize; 3] = [100, 1_000, 10_000];

/// A 6-parameter discrete space: 8·7·6·5·4·4 = 26 880 configurations,
/// comfortably larger than the biggest measured history.
fn bench_space() -> ParameterSpace {
    let mut b = ParameterSpace::builder();
    for (i, card) in [8i64, 7, 6, 5, 4, 4].into_iter().enumerate() {
        let vals: Vec<i64> = (0..card).collect();
        b = b.param(ParamDef::new(format!("p{i}"), Domain::discrete_ints(&vals)));
    }
    b.build().expect("valid")
}

/// Deterministic objective with frequent ties (exercises the threshold
/// tie-break machinery while being free to evaluate).
fn objective(cfg: &Configuration) -> f64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for v in cfg.values() {
        h = h
            .wrapping_add(v.as_f64().to_bits())
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 29;
    }
    1.0 + (h % 512) as f64 / 16.0
}

/// The pool, Fisher–Yates-shuffled with a fixed seed: prefix = history.
fn shuffled_pool(space: &ParameterSpace) -> Vec<Configuration> {
    let mut pool = space.enumerate();
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    for i in (1..pool.len()).rev() {
        let j = rng.gen_range(0..=i);
        pool.swap(i, j);
    }
    pool
}

/// Median of `TRIALS` timed runs of `f`, each averaging `inner` calls.
fn median_ns(inner: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<u64> = (0..TRIALS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..inner {
                f();
            }
            t.elapsed().as_nanos() as u64 / inner as u64
        })
        .collect();
    samples.sort_unstable();
    samples[TRIALS / 2] as f64
}

#[derive(Debug, serde::Serialize)]
struct RefitResult {
    history_len: usize,
    full_refit_ns_per_iter: f64,
    incremental_delta_ns_per_update: f64,
    speedup: f64,
}

#[derive(Debug, serde::Serialize)]
struct Report {
    bench: String,
    host: HostMeta,
    trials: usize,
    pool_size: usize,
    refits: Vec<RefitResult>,
}

fn measure_refit(
    space: &ParameterSpace,
    configs: &[Configuration],
    objectives: &[f64],
    probes: &[Configuration],
) -> RefitResult {
    let n = configs.len();
    let opts = SurrogateOptions::default();

    // Parity first: the engine must agree with the full fit bit-for-bit
    // before either path's speed means anything.
    let mut engine = IncrementalSurrogate::new(space, &opts, None);
    for (c, &y) in configs.iter().zip(objectives) {
        engine.observe(c, y);
    }
    engine.assert_parity(space, configs, objectives, &[], None);

    // Full refit + score-table build, the per-iteration cost of the old path.
    let mut scratch = FitScratch::default();
    let inner_full = (2_000_000 / n.max(1)).clamp(1, 2_000);
    let full_ns = median_ns(inner_full, || {
        let s = TpeSurrogate::fit_with_failures_scratch(
            space,
            configs,
            objectives,
            &[],
            &opts,
            None,
            &mut scratch,
        );
        let table = s.score_table();
        std::hint::black_box(table.discrete_tables().expect("discrete"));
    });

    // Delta path: one fantasy observe + pop per cycle = two delta updates.
    let mut probe_iter = 0usize;
    let inner_delta = 4_000;
    let delta_ns = median_ns(inner_delta, || {
        let p = &probes[probe_iter % probes.len()];
        probe_iter += 1;
        engine.observe(p, engine.threshold());
        engine.pop_observation();
        std::hint::black_box(engine.threshold());
    }) / 2.0;
    // The cycle must have restored the engine exactly.
    engine.assert_parity(space, configs, objectives, &[], None);

    let r = RefitResult {
        history_len: n,
        full_refit_ns_per_iter: full_ns,
        incremental_delta_ns_per_update: delta_ns,
        speedup: full_ns / delta_ns,
    };
    println!(
        "history {:>6} | full refit {:>12.0} ns | delta update {:>9.0} ns | {:>7.1}x",
        r.history_len, r.full_refit_ns_per_iter, r.incremental_delta_ns_per_update, r.speedup
    );
    r
}

fn main() {
    pin_threads();
    eprintln!("[bench_incremental] enumerating + shuffling the pool…");
    let space = bench_space();
    let pool = shuffled_pool(&space);
    let objectives: Vec<f64> = pool.iter().map(objective).collect();

    let mut refits = Vec::new();
    for &n in &HISTORY_SIZES {
        let (configs, rest) = pool.split_at(n);
        let probes = &rest[..256];
        refits.push(measure_refit(&space, configs, &objectives[..n], probes));
    }

    let report = Report {
        host: host_meta(),
        bench: "incremental surrogate: O(churn) delta updates vs full refits".into(),
        trials: TRIALS,
        pool_size: pool.len(),
        refits,
    };
    write_bench_json("BENCH_incremental.json", &report);
}

//! Measures the Ranking hot path — serial per-candidate `log_ei`, the
//! batch-scoring sweep (`rank_encoded`) and the pool-trie branch and bound
//! (`rank_trie`) — over the three measured pools and writes
//! `BENCH_selection.json` at the workspace root.
//!
//! Per pool it reports the per-iteration ranking wall time of each path
//! (median of `TRIALS` timed runs, each averaging `inner` rankings), the
//! sweep's ns-per-candidate-score and its speedup over the serial path,
//! and the trie's nodes visited and speedup over the sweep. Timings flow
//! through the shared `hiperbot-obs` [`MetricsRegistry`] — one histogram
//! per `(path, pool)` — so this bench exercises the same quantile pipeline
//! as `--metrics-summary` and the trace replayer. Run with
//! `cargo run --release -p hiperbot-bench --bin bench_selection`.

use hiperbot_apps::{hypre, kripke, Dataset, Scale};
use hiperbot_bench::{host_meta, pin_threads, write_bench_json, HostMeta};
use hiperbot_core::selection::{rank_encoded, rank_trie};
use hiperbot_core::surrogate::{SurrogateOptions, TpeSurrogate};
use hiperbot_core::ObservationHistory;
use hiperbot_obs::MetricsRegistry;
use hiperbot_space::pool::{PoolEncoding, PoolMask, PoolTrie};
use hiperbot_space::sampling::sample_distinct;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

const HISTORY_LEN: usize = 100;
const TRIALS: usize = 9;

#[derive(Debug, serde::Serialize)]
struct PoolResult {
    dataset: String,
    pool_size: usize,
    history_len: usize,
    serial_ns_per_iter: f64,
    batch_ns_per_iter: f64,
    batch_ns_per_candidate_score: f64,
    speedup: f64,
    trie_ns_per_iter: f64,
    trie_nodes_visited: u64,
    trie_speedup_over_batch: f64,
}

#[derive(Debug, serde::Serialize)]
struct Report {
    bench: String,
    host: HostMeta,
    trials: usize,
    pools: Vec<PoolResult>,
}

/// Runs `TRIALS` timed runs of `f` (each averaging `inner` calls) into the
/// registry histogram `phase`, then reads the median back out of it.
fn median_ns(registry: &MetricsRegistry, phase: &str, inner: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..TRIALS {
        let t = Instant::now();
        for _ in 0..inner {
            f();
        }
        registry.observe_ns(phase, t.elapsed().as_nanos() as u64 / inner as u64);
    }
    registry
        .histogram(phase)
        .and_then(|h| h.quantile(0.5))
        .expect("samples recorded") as f64
}

fn measure(registry: &MetricsRegistry, name: &str, dataset: &Dataset) -> PoolResult {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let configs = sample_distinct(dataset.space(), HISTORY_LEN, &mut rng);
    let objectives: Vec<f64> = configs.iter().map(|c| dataset.evaluate(c)).collect();
    let surrogate = TpeSurrogate::fit(
        dataset.space(),
        &configs,
        &objectives,
        &SurrogateOptions::default(),
        None,
    );
    let mut history = ObservationHistory::new();
    for (c, &y) in configs.iter().zip(&objectives) {
        history.push(c.clone(), y);
    }
    let pool = dataset.configs();
    let encoding = PoolEncoding::encode(pool).expect("discrete pool");
    let mut seen = PoolMask::new(pool.len());
    for (i, c) in pool.iter().enumerate() {
        if history.contains(c) {
            seen.set(i);
        }
    }
    let trie = PoolTrie::new(encoding.clone());
    let counts = trie.unseen_counts(&seen);

    // Both paths must agree on the winner before either is timed.
    let table = surrogate.score_table();
    let tables = table.discrete_tables().expect("discrete space");
    let batch_pick = rank_encoded(&tables, &encoding, &seen);
    let serial_pick = {
        let mut best = f64::NEG_INFINITY;
        let mut best_i = None;
        for (i, cfg) in pool.iter().enumerate() {
            if history.contains(cfg) {
                continue;
            }
            let s = surrogate.log_ei(cfg);
            if best_i.is_none() || s > best {
                best = s;
                best_i = Some(i);
            }
        }
        best_i
    };
    assert_eq!(batch_pick, serial_pick, "paths disagree on {name}");
    let trie_rank = rank_trie(&tables, &trie, &counts, &seen);
    assert_eq!(
        trie_rank.pos, batch_pick,
        "trie and sweep disagree on {name}"
    );

    // Calibrate inner repeats so each timed run lasts a few milliseconds.
    let inner_serial = (50_000 / pool.len()).max(1);
    let inner_batch = inner_serial * 8;

    let serial_ns = median_ns(registry, &format!("serial.{name}"), inner_serial, || {
        let mut best = f64::NEG_INFINITY;
        let mut best_i = None;
        for (i, cfg) in pool.iter().enumerate() {
            if history.contains(cfg) {
                continue;
            }
            let s = surrogate.log_ei(cfg);
            if best_i.is_none() || s > best {
                best = s;
                best_i = Some(i);
            }
        }
        std::hint::black_box(best_i);
    });

    // The batch path rebuilds the table each iteration (the Tuner refits
    // per observation) but reuses the cached encoding and mask.
    let batch_ns = median_ns(registry, &format!("batch.{name}"), inner_batch, || {
        let table = surrogate.score_table();
        let tables = table.discrete_tables().expect("discrete space");
        std::hint::black_box(rank_encoded(&tables, &encoding, &seen));
    });
    let trie_ns = median_ns(registry, &format!("trie.{name}"), inner_batch, || {
        let table = surrogate.score_table();
        let tables = table.discrete_tables().expect("discrete space");
        std::hint::black_box(rank_trie(&tables, &trie, &counts, &seen));
    });

    let r = PoolResult {
        dataset: name.to_string(),
        pool_size: pool.len(),
        history_len: HISTORY_LEN,
        serial_ns_per_iter: serial_ns,
        batch_ns_per_iter: batch_ns,
        batch_ns_per_candidate_score: batch_ns / pool.len() as f64,
        speedup: serial_ns / batch_ns,
        trie_ns_per_iter: trie_ns,
        trie_nodes_visited: trie_rank.visited,
        trie_speedup_over_batch: batch_ns / trie_ns,
    };
    println!(
        "{:>14} | pool {:>6} | serial {:>12.0} ns | batch {:>10.0} ns | {:>6.1}x | {:>6.2} ns/candidate \
         | trie {:>8.0} ns | {:>6} nodes | {:>5.1}x over batch",
        r.dataset, r.pool_size, r.serial_ns_per_iter, r.batch_ns_per_iter, r.speedup,
        r.batch_ns_per_candidate_score, r.trie_ns_per_iter, r.trie_nodes_visited,
        r.trie_speedup_over_batch
    );
    r
}

fn main() {
    pin_threads();
    eprintln!("[bench_selection] generating datasets…");
    let registry = MetricsRegistry::new();
    let pools = vec![
        measure(
            &registry,
            "kripke-exec",
            &kripke::exec_dataset(Scale::Target),
        ),
        measure(&registry, "hypre", &hypre::dataset(Scale::Target)),
        measure(
            &registry,
            "kripke-energy",
            &kripke::energy_dataset(Scale::Target),
        ),
    ];
    let report = Report {
        host: host_meta(),
        bench: "ranking hot path: serial log_ei vs batch score-table sweep vs pool-trie branch and bound".into(),
        trials: TRIALS,
        pools,
    };
    write_bench_json("BENCH_selection.json", &report);
    println!("\n{}", registry.render_summary());
}

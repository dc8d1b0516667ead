//! Property-based invariants of the batch-scoring engine: the precomputed
//! [`ScoreTable`] must agree with the per-candidate `log_ei` path, the
//! rayon-chunked ranking must be bit-identical to the serial oracle, and
//! the pool-trie branch and bound must pick exactly what both pick. CI
//! runs this suite at several `RAYON_NUM_THREADS` values.
//!
//! [`ScoreTable`]: hiperbot_core::surrogate::ScoreTable

mod common;

use common::oracle::{rank_serial_by, select_by_ranking_serial};
use hiperbot_core::selection::{rank_encoded, rank_trie};
use hiperbot_core::surrogate::{SurrogateOptions, TpeSurrogate};
use hiperbot_core::ObservationHistory;
use hiperbot_space::pool::{PoolEncoding, PoolMask, PoolTrie};
use hiperbot_space::sampling::sample_distinct;
use hiperbot_space::{Configuration, Domain, ParamDef, ParameterSpace};
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A random fully discrete space of 1–4 parameters with 2–5 values each.
fn arb_discrete_space() -> impl Strategy<Value = ParameterSpace> {
    proptest::collection::vec(2usize..=5, 1..=4).prop_map(|cards| {
        let mut b = ParameterSpace::builder();
        for (i, c) in cards.into_iter().enumerate() {
            let vals: Vec<i64> = (0..c as i64).collect();
            b = b.param(ParamDef::new(format!("p{i}"), Domain::discrete_ints(&vals)));
        }
        b.build().expect("valid")
    })
}

/// A deterministic pseudo-random objective keyed on the configuration
/// (hashes value bits, so it works on discrete and continuous params).
fn hash_objective(cfg: &Configuration, salt: u64) -> f64 {
    let mut h = salt ^ 0x9E37_79B9_7F4A_7C15;
    for v in cfg.values() {
        h = h
            .wrapping_add(v.as_f64().to_bits())
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 29;
    }
    1.0 + (h % 10_000) as f64 / 100.0
}

/// Fits a surrogate on a random distinct history of `n` observations.
fn fit_on_history(
    space: &ParameterSpace,
    n: usize,
    seed: u64,
    salt: u64,
) -> (TpeSurrogate, ObservationHistory) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let configs = sample_distinct(space, n, &mut rng);
    let mut history = ObservationHistory::new();
    for c in configs {
        let y = hash_objective(&c, salt);
        history.push(c, y);
    }
    let surrogate = TpeSurrogate::fit(
        space,
        history.configs(),
        history.objectives(),
        &SurrogateOptions::default(),
        None,
    );
    (surrogate, history)
}

/// The pool positions whose configurations are in `history`.
fn seen_mask(pool: &[Configuration], history: &ObservationHistory) -> PoolMask {
    let mut seen = PoolMask::new(pool.len());
    for (i, c) in pool.iter().enumerate() {
        if history.contains(c) {
            seen.set(i);
        }
    }
    seen
}

/// A random pool-trie case: a 1–5-parameter discrete space under a
/// random feasibility predicate (so the pool is a non-product subset,
/// possibly a single configuration or empty), per-parameter score tables
/// and a random seen mask over the pool.
struct TrieCase {
    space: ParameterSpace,
    pool: Vec<Configuration>,
    tables: Vec<Vec<f64>>,
    seen: PoolMask,
}

impl TrieCase {
    fn new(seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let cards: Vec<usize> = (0..rng.gen_range(1..=5))
            .map(|_| rng.gen_range(1..=4))
            .collect();
        let total: usize = cards.iter().product();
        let single = rng.gen_range(0..total);
        let keep_pct = [100, 60, 25, 0][rng.gen_range(0..4)];
        let salt = rng.next_u64();
        let mut builder = ParameterSpace::builder();
        for (i, &c) in cards.iter().enumerate() {
            let vals: Vec<i64> = (0..c as i64).collect();
            builder = builder.param(ParamDef::new(format!("p{i}"), Domain::discrete_ints(&vals)));
        }
        let card = cards.clone();
        let space = builder
            .constraint("random subset", move |cfg, _| {
                let flat = cfg
                    .values()
                    .iter()
                    .zip(&card)
                    .fold(0, |acc, (v, &c)| acc * c + v.index());
                if keep_pct == 0 {
                    return flat == single; // a single-configuration pool
                }
                let h = (salt ^ flat as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (h >> 33) % 100 < keep_pct
            })
            .build()
            .expect("valid space");
        let pool = space.enumerate();
        // Tables from a 3-value set make exact ties and plateaus common;
        // all-equal tables make every candidate tie; wide draws exercise
        // rounding of distinct sums.
        const SET: [f64; 3] = [-0.3, 0.1, 0.2];
        let mode = rng.gen_range(0..4);
        let flat_value = SET[rng.gen_range(0..3)];
        let tables = cards
            .iter()
            .map(|&c| {
                (0..c)
                    .map(|_| match mode {
                        0 => flat_value,
                        1 => rng.gen_range(-3.0..3.0),
                        _ => SET[rng.gen_range(0..3)],
                    })
                    .collect()
            })
            .collect();
        let density = [0.0, 0.3, 0.7, 1.0][rng.gen_range(0..4)];
        let mut seen = PoolMask::new(pool.len());
        for i in 0..pool.len() {
            if rng.gen_bool(density) {
                seen.set(i);
            }
        }
        Self {
            space,
            pool,
            tables,
            seen,
        }
    }

    fn table_refs(&self) -> Vec<&[f64]> {
        self.tables.iter().map(Vec::as_slice).collect()
    }

    /// The serial oracle's pick: a left-to-right table sum per unseen
    /// pool member, first strict maximum wins.
    fn oracle(&self, seen: &PoolMask) -> Option<usize> {
        rank_serial_by(
            &self.pool,
            |cfg| {
                cfg.values()
                    .iter()
                    .zip(&self.tables)
                    .fold(0.0, |acc, (v, t)| acc + t[v.index()])
            },
            |i, _| seen.get(i),
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The branch and bound picks exactly what the chunked sweep and the
    /// serial oracle pick, ties to the lowest pool position included, over
    /// a run of successive picks (each marked seen before the next, so
    /// the best rows drop out and the remaining ties shift).
    #[test]
    fn trie_argmax_matches_the_sweep_and_the_oracle(seed in 0u64..1_000_000) {
        let case = TrieCase::new(seed);
        let tables = case.table_refs();
        let trie = PoolTrie::new(PoolEncoding::encode(&case.pool).expect("encodable"));
        let mut seen = case.seen.clone();
        let mut counts = trie.unseen_counts(&seen);
        for step in 0..16 {
            let ranked = rank_trie(&tables, &trie, &counts, &seen);
            let swept = rank_encoded(&tables, trie.encoding(), &seen);
            prop_assert_eq!(ranked.pos, swept, "trie vs sweep, seed {} step {}", seed, step);
            prop_assert_eq!(swept, case.oracle(&seen), "sweep vs oracle, seed {} step {}", seed, step);
            prop_assert!(ranked.visited as usize <= case.tables.len() * case.pool.len());
            let Some(pos) = ranked.pos else { break };
            seen.set(pos);
            trie.mark(&mut counts, pos);
        }
    }

    /// Marking positions (as batch picks are marked) keeps the counts equal
    /// to a rebuild from the mask, the search stays exact on the marked
    /// state, and unmarking restores the counts exactly.
    #[test]
    fn mark_then_unmark_restores_the_counts(seed in 0u64..1_000_000) {
        let case = TrieCase::new(seed);
        let tables = case.table_refs();
        let trie = PoolTrie::new(PoolEncoding::encode(&case.pool).expect("encodable"));
        let before = trie.unseen_counts(&case.seen);
        let mut counts = before.clone();
        let mut seen = case.seen.clone();
        let mut marked = Vec::new();
        for _ in 0..4 {
            let Some(pos) = rank_trie(&tables, &trie, &counts, &seen).pos else { break };
            prop_assert_eq!(Some(pos), case.oracle(&seen), "seed {}", seed);
            seen.set(pos);
            trie.mark(&mut counts, pos);
            marked.push(pos);
            prop_assert_eq!(&counts, &trie.unseen_counts(&seen));
        }
        for &pos in marked.iter().rev() {
            seen.clear(pos);
            trie.unmark(&mut counts, pos);
        }
        prop_assert_eq!(counts, before);
        prop_assert_eq!(seen, case.seen);
    }

    /// A table with a NaN or an infinity sends the search to the sweep,
    /// whose answer it returns.
    #[test]
    fn non_finite_tables_return_the_dense_answer(
        seed in 0u64..1_000_000,
        which in 0usize..3,
    ) {
        let mut case = TrieCase::new(seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA5A5);
        let p = rng.gen_range(0..case.tables.len());
        let v = rng.gen_range(0..case.tables[p].len());
        case.tables[p][v] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][which];
        let tables = case.table_refs();
        let trie = PoolTrie::new(PoolEncoding::encode(&case.pool).expect("encodable"));
        let counts = trie.unseen_counts(&case.seen);
        let ranked = rank_trie(&tables, &trie, &counts, &case.seen);
        prop_assert_eq!(ranked.pos, rank_encoded(&tables, trie.encoding(), &case.seen));
        prop_assert_eq!(ranked.visited as usize, case.pool.len());
    }

    /// `PoolTrie::position` inverts the enumeration, and finds no position
    /// for an infeasible configuration.
    #[test]
    fn trie_position_inverts_the_enumeration(seed in 0u64..1_000_000) {
        let case = TrieCase::new(seed);
        let trie = PoolTrie::new(PoolEncoding::encode(&case.pool).expect("encodable"));
        for (i, cfg) in case.pool.iter().enumerate() {
            prop_assert_eq!(trie.position(cfg), Some(i));
        }
        let total = case.space.product_cardinality().expect("discrete");
        for flat in 0..total {
            let cfg = case.space.config_at(flat);
            if !case.space.is_feasible(&cfg) {
                prop_assert_eq!(trie.position(&cfg), None);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The precomputed table scores every pool member exactly like the
    /// per-candidate `log_ei` path (same per-parameter expressions summed
    /// in the same order ⇒ within 1e-12 is actually bit-identical, but the
    /// contract the engine documents is the tolerance).
    #[test]
    fn score_table_matches_log_ei(
        space in arb_discrete_space(),
        seed in 0u64..500,
        salt in 0u64..500,
        n_obs in 4usize..20,
    ) {
        let pool_size = space.product_cardinality().unwrap();
        let (surrogate, _) = fit_on_history(&space, n_obs.min(pool_size), seed, salt);
        let table = surrogate.score_table();
        for cfg in space.enumerate() {
            let exact = surrogate.log_ei(&cfg);
            let tabled = table.score(&cfg);
            prop_assert!(
                (exact - tabled).abs() <= 1e-12,
                "log_ei {exact} vs table {tabled}"
            );
        }
    }

    /// Mixed spaces keep the exact continuous densities in the table:
    /// scores still match `log_ei` even though only the discrete
    /// parameters get dense lookup rows.
    #[test]
    fn score_table_matches_log_ei_on_mixed_spaces(
        seed in 0u64..200,
        salt in 0u64..200,
    ) {
        let space = ParameterSpace::builder()
            .param(ParamDef::new("d", Domain::discrete_ints(&[0, 1, 2, 3])))
            .param(ParamDef::new("x", Domain::continuous(-1.0, 1.0)))
            .build()
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let configs = sample_distinct(&space, 12, &mut rng);
        let objectives: Vec<f64> = configs.iter().map(|c| hash_objective(c, salt)).collect();
        let surrogate = TpeSurrogate::fit(
            &space,
            &configs,
            &objectives,
            &SurrogateOptions::default(),
            None,
        );
        let table = surrogate.score_table();
        prop_assert!(!table.is_fully_discrete());
        for cfg in &configs {
            let exact = surrogate.log_ei(cfg);
            prop_assert!((exact - table.score(cfg)).abs() <= 1e-12);
        }
    }

    /// The chunked parallel argmax returns the same pool index as the
    /// serial oracle.
    #[test]
    fn parallel_ranking_matches_the_serial_oracle(
        space in arb_discrete_space(),
        seed in 0u64..500,
        salt in 0u64..500,
        n_obs in 4usize..20,
    ) {
        let pool = space.enumerate();
        let (surrogate, history) = fit_on_history(&space, n_obs.min(pool.len()), seed, salt);
        let table = surrogate.score_table();
        let tables = table.discrete_tables().expect("fully discrete");
        let encoding = PoolEncoding::encode(&pool).expect("encodable");
        let seen = seen_mask(&pool, &history);
        let oracle = select_by_ranking_serial(&table, &pool, &history);
        let pick = rank_encoded(&tables, &encoding, &seen).map(|i| pool[i].clone());
        prop_assert_eq!(pick, oracle);
    }
}

#[test]
fn rank_encoded_matches_the_serial_oracle() {
    let space = ParameterSpace::builder()
        .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1, 2, 3])))
        .build()
        .unwrap();
    let mut history = ObservationHistory::new();
    history.push(Configuration::from_indices(&[0]), 1.0);
    history.push(Configuration::from_indices(&[2]), 10.0);
    history.push(Configuration::from_indices(&[3]), 11.0);
    let surrogate = TpeSurrogate::fit(
        &space,
        history.configs(),
        history.objectives(),
        &SurrogateOptions::default(),
        None,
    );
    let pool = space.enumerate();
    let table = surrogate.score_table();
    let tables = table.discrete_tables().expect("fully discrete");
    let encoding = PoolEncoding::encode(&pool).expect("encodable");
    let seen = seen_mask(&pool, &history);
    let parallel = rank_encoded(&tables, &encoding, &seen).map(|i| pool[i].clone());
    let serial = select_by_ranking_serial(&table, &pool, &history);
    assert_eq!(parallel, serial);
    assert_eq!(serial, Some(Configuration::from_indices(&[1])));
}

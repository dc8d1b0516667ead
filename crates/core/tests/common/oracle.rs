//! Reference selectors the production paths are checked against.
//!
//! Each one is the plain, from-scratch form of a decision the tuner makes
//! on its optimized engines: a per-candidate Ranking scan, the scalar
//! sample-then-score Proposal loop, and a constant-liar Ranking batch
//! built from full refits. None of them runs in production.

use hiperbot_core::surrogate::{ScoreTable, SurrogateOptions, TpeSurrogate};
use hiperbot_core::{ObservationHistory, TransferPrior};
use hiperbot_space::{Configuration, ParameterSpace};
use std::collections::HashSet;

/// Ranking by per-candidate table scoring and per-candidate history
/// hashing. The first strict maximum in pool order wins, so ties go to
/// the lowest pool index. `None` when every pool member is in `history`.
pub fn select_by_ranking_serial(
    table: &ScoreTable,
    pool: &[Configuration],
    history: &ObservationHistory,
) -> Option<Configuration> {
    rank_serial_by(pool, |cfg| table.score(cfg), |_, cfg| history.contains(cfg))
        .map(|i| pool[i].clone())
}

/// The scan behind [`select_by_ranking_serial`] for any scorer: the pool
/// position of the first strict maximum of `score` among the positions
/// `seen` rejects, in pool order.
pub fn rank_serial_by(
    pool: &[Configuration],
    score: impl Fn(&Configuration) -> f64,
    seen: impl Fn(usize, &Configuration) -> bool,
) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None;
    for (i, cfg) in pool.iter().enumerate() {
        if seen(i, cfg) {
            continue;
        }
        let score = score(cfg);
        match best {
            Some((s, _)) if s >= score => {}
            _ => best = Some((score, i)),
        }
    }
    best.map(|(_, i)| i)
}

/// Proposal by the scalar loop: draw `candidates` feasible configurations
/// from `p_g`, score each, and return the best unseen one (the best draw
/// overall when every draw duplicates history).
pub fn select_by_proposal<R: rand::Rng + ?Sized>(
    surrogate: &TpeSurrogate,
    space: &ParameterSpace,
    history: &ObservationHistory,
    candidates: usize,
    rng: &mut R,
) -> Configuration {
    assert!(candidates > 0, "need at least one candidate");
    let mut best_unseen: Option<(f64, Configuration)> = None;
    let mut best_any: Option<(f64, Configuration)> = None;
    for _ in 0..candidates {
        let cfg = surrogate.sample_good(space, rng);
        let score = surrogate.log_ei(&cfg);
        if best_any.as_ref().is_none_or(|(s, _)| score > *s) {
            best_any = Some((score, cfg.clone()));
        }
        if !history.contains(&cfg) && best_unseen.as_ref().is_none_or(|(s, _)| score > *s) {
            best_unseen = Some((score, cfg));
        }
    }
    best_unseen
        .or(best_any)
        .map(|(_, c)| c)
        .expect("candidates > 0 guarantees a draw")
}

/// One pick of [`ranking_batch_from_scratch`], with the fit statistics
/// the tuner reports for it in `SurrogateFit` and `SelectionScored`.
#[derive(Debug)]
pub struct OraclePick {
    pub config: Configuration,
    /// The fit's good/bad threshold `y(τ)`.
    pub threshold: f64,
    pub n_good: usize,
    pub n_bad: usize,
    /// `log_ei` of the pick under the fit that chose it.
    pub log_ei: f64,
}

/// A constant-liar Ranking batch of up to `k` picks, every fit from
/// scratch. Pick `i` fits on the history, its quarantined failures, and
/// `i` fantasy observations (the earlier picks) at the pre-batch
/// threshold, then takes the best unseen pool position by a serial scan
/// with the lowest index winning ties. History, failures and earlier
/// picks all count as seen. Returns fewer than `k` picks when the pool
/// runs out.
///
/// # Panics
/// Panics if `history` holds no observation or the space is not fully
/// discrete.
pub fn ranking_batch_from_scratch(
    space: &ParameterSpace,
    history: &ObservationHistory,
    options: &SurrogateOptions,
    prior: Option<(&TransferPrior, f64)>,
    k: usize,
) -> Vec<OraclePick> {
    let pool = space.enumerate();
    let failed: Vec<Configuration> = history
        .failures()
        .iter()
        .map(|f| f.config.clone())
        .collect();
    let mut seen: HashSet<Configuration> = history.configs().iter().cloned().collect();
    seen.extend(failed.iter().cloned());
    let mut configs = history.configs().to_vec();
    let mut objectives = history.objectives().to_vec();
    let mut liar = 0.0;
    let mut picks = Vec::with_capacity(k);
    for i in 0..k {
        let surrogate =
            TpeSurrogate::fit_with_failures(space, &configs, &objectives, &failed, options, prior);
        if i == 0 {
            liar = surrogate.threshold();
        }
        let mut best: Option<(f64, &Configuration)> = None;
        for cfg in pool.iter().filter(|c| !seen.contains(*c)) {
            let score = surrogate.log_ei(cfg);
            match best {
                Some((s, _)) if s >= score => {}
                _ => best = Some((score, cfg)),
            }
        }
        let Some((log_ei, cfg)) = best else { break };
        picks.push(OraclePick {
            config: cfg.clone(),
            threshold: surrogate.threshold(),
            n_good: surrogate.n_good(),
            n_bad: surrogate.n_bad(),
            log_ei,
        });
        seen.insert(cfg.clone());
        configs.push(cfg.clone());
        objectives.push(liar);
    }
    picks
}

//! Per-layer replays. A traced campaign logs every trial; after the
//! campaign's timed window the replay re-runs the decision layers along
//! that log through the crates' public functions and times each call.
//! The replayed picks must equal the campaign's, which checks the log
//! and shows the replay did the campaign's work.

use crate::stats::{us, Digest, Layers};
use hiperbot::core::selection::{
    rank_encoded, select_by_proposal_vectorized, ProposalScratch, PROPOSAL_REDRAW_ROUNDS,
};
use hiperbot::core::surrogate::SurrogateOptions;
use hiperbot::core::{IncrementalSurrogate, ObservationHistory, TpeSurrogate, TunerOptions};
use hiperbot::space::pool::{PoolEncoding, PoolMask};
use hiperbot::space::{Configuration, ParamValue, ParameterSpace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::time::Instant;

/// One trial of a campaign, in trial order: the configuration and its
/// objective, `None` when the trial failed permanently.
#[derive(Debug, Clone)]
pub struct Trial {
    /// The evaluated configuration.
    pub cfg: Configuration,
    /// Its objective, `None` for a permanent failure.
    pub y: Option<f64>,
}

/// The density options the tuner derives from its default options.
fn surrogate_options() -> SurrogateOptions {
    let t = TunerOptions::default();
    SurrogateOptions {
        alpha: t.alpha,
        pseudo_count: t.pseudo_count,
        bandwidth_fraction: t.bandwidth_fraction,
    }
}

/// Replays a Ranking campaign: pool enumeration and encoding once, then
/// for every model-driven batch `(base, k)` the incremental surrogate's
/// sync and constant-liar fantasies (`core.fit`) and one `rank_encoded`
/// argmax per pick (`core.select`). A serial campaign is batches of one.
pub fn ranking(
    space: &ParameterSpace,
    trials: &[Trial],
    batches: &[(usize, usize)],
    layers: &mut Layers,
) -> Result<(), String> {
    let t = Instant::now();
    let configs = space.enumerate();
    let enumerate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let encoding = PoolEncoding::encode(&configs).ok_or("pool is not encodable")?;
    let encode = t.elapsed();
    layers.value("space.pool_encode_us", us(encode));
    layers.value("space.pool_size", configs.len() as f64);
    layers.busy("space", enumerate_s + encode.as_secs_f64());

    let position: HashMap<&Configuration, usize> =
        configs.iter().enumerate().map(|(i, c)| (c, i)).collect();
    let mut engine = IncrementalSurrogate::new(space, &surrogate_options(), None);
    let mut seen = PoolMask::new(configs.len());
    let mut synced = 0usize;
    for &(base, k) in batches {
        for tr in &trials[synced..base] {
            let pos = *position
                .get(&tr.cfg)
                .ok_or("logged trial is not in the pool")?;
            seen.set(pos);
        }
        // The tuner absorbs new observations first, then new failures.
        let t = Instant::now();
        for tr in &trials[synced..base] {
            if let Some(y) = tr.y {
                engine.observe(&tr.cfg, y);
            }
        }
        for tr in &trials[synced..base] {
            if tr.y.is_none() {
                engine.observe_failure(&tr.cfg);
            }
        }
        let mut fit = t.elapsed();
        synced = base;
        let liar = engine.threshold();
        let mut batch_seen = seen.clone();
        for i in 0..k {
            if i > 0 {
                let t = Instant::now();
                engine.observe(&trials[base + i - 1].cfg, liar);
                fit += t.elapsed();
            }
            let t = Instant::now();
            let tables = engine.tables().ok_or("Ranking needs a discrete space")?;
            let pick = rank_encoded(&tables, &encoding, &batch_seen);
            let select = t.elapsed();
            layers.sample("core.select_us", us(select));
            layers.busy("core.select", select.as_secs_f64());
            match pick {
                Some(pos) if configs[pos] == trials[base + i].cfg => batch_seen.set(pos),
                _ => {
                    return Err(format!(
                        "replayed Ranking pick diverged at trial {}",
                        base + i
                    ))
                }
            }
        }
        let t = Instant::now();
        for _ in 1..k {
            engine.pop_observation();
        }
        fit += t.elapsed();
        layers.sample("core.fit_us", us(fit));
        layers.busy("core.fit", fit.as_secs_f64());
    }
    layers.value("core.candidates_per_select", configs.len() as f64);
    Ok(())
}

/// Replays a serial Proposal campaign: at every model-driven trial a
/// from-scratch `TpeSurrogate::fit_with_failures` over the history so far
/// (`core.fit`) and one `select_by_proposal_vectorized` call with the
/// tuner's candidate count (`core.select`). The draws come from a replay
/// RNG, so picks are not compared; the work per call is the campaign's.
pub fn proposal(
    space: &ParameterSpace,
    trials: &[Trial],
    init: usize,
    candidates: usize,
    seed: u64,
    layers: &mut Layers,
) {
    let options = surrogate_options();
    let mut history = ObservationHistory::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut scratch = ProposalScratch::default();
    let mut scored = Vec::new();
    for (i, tr) in trials.iter().enumerate() {
        if i >= init && !history.is_empty() {
            let t = Instant::now();
            let surrogate = TpeSurrogate::fit_with_failures(
                space,
                history.configs(),
                history.objectives(),
                &[],
                &options,
                None,
            );
            let fit = t.elapsed();
            let t = Instant::now();
            let pick = select_by_proposal_vectorized(
                &surrogate,
                space,
                &history,
                None,
                candidates,
                PROPOSAL_REDRAW_ROUNDS,
                &mut rng,
                &mut scratch,
            );
            let select = t.elapsed();
            std::hint::black_box(&pick.config);
            scored.push(pick.scored as f64);
            layers.sample("core.fit_us", us(fit));
            layers.busy("core.fit", fit.as_secs_f64());
            layers.sample("core.select_us", us(select));
            layers.busy("core.select", select.as_secs_f64());
        }
        match tr.y {
            Some(y) => history.push(tr.cfg.clone(), y),
            None => history.push_failure(tr.cfg.clone(), "failed"),
        }
    }
    layers.value("core.candidates_per_select", crate::stats::median(&scored));
}

/// Digest of a trial log: every configuration's values and every
/// outcome, in trial order.
pub fn digest(trials: &[Trial]) -> u64 {
    let mut d = Digest::default();
    for tr in trials {
        for p in 0..tr.cfg.len() {
            d.word(match tr.cfg.value(p) {
                ParamValue::Index(i) => i as u64,
                ParamValue::Real(x) => x.to_bits(),
            });
        }
        d.word(tr.y.map_or(u64::MAX, f64::to_bits));
    }
    d.value()
}

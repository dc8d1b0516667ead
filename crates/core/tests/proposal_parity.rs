//! The vectorized Proposal engine's parity contracts, regression-pinned:
//!
//! - `select_by_proposal_vectorized` with zero redraw rounds is
//!   **bit-identical** to the scalar `select_by_proposal` oracle
//!   (`common/oracle.rs`) — same pick,
//!   same RNG cursor afterwards.
//! - `log_ei_batch` scores carry the exact bits `log_ei` returns per
//!   candidate, across random spaces, histories, and seeds.
//! - `sample_good_batch` consumes the RNG exactly like n scalar
//!   `sample_good` calls and reproduces their draws.
//! - The k = 1 driver under Proposal reproduces the recorded campaigns of
//!   the dedicated serial driver it replaced — histories, traces and stall
//!   totals — mirroring the Ranking contract in `batch_parity.rs`.
//! - `SelectionScored.best_ei` is the winning selection score (the tuner
//!   no longer re-scores the pick after selection).
//! - The in-selection redraw rounds never stall where the old
//!   single-round path would have succeeded.

mod common;

use common::oracle::select_by_proposal;
use common::{assert_reproduces, SerialReference};
use hiperbot_core::selection::{
    select_by_proposal_vectorized, ProposalScratch, SelectionStrategy, PROPOSAL_REDRAW_ROUNDS,
};
use hiperbot_core::surrogate::{CandidateMatrix, SurrogateOptions, TpeSurrogate};
use hiperbot_core::{EvalOutcome, ObservationHistory, Tuner, TunerOptions};
use hiperbot_obs::{Event, MemoryRecorder};
use hiperbot_space::sampling::sample_distinct;
use hiperbot_space::{Configuration, Domain, ParamDef, ParameterSpace};
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// A mixed continuous + discrete space: both candidate-column kinds.
fn mixed_space() -> ParameterSpace {
    ParameterSpace::builder()
        .param(ParamDef::new("x", Domain::continuous(0.0, 1.0)))
        .param(ParamDef::new("y", Domain::continuous(-2.0, 2.0)))
        .param(ParamDef::new("k", Domain::discrete_ints(&[0, 1, 2, 3])))
        .build()
        .unwrap()
}

fn objective(cfg: &Configuration) -> f64 {
    let x = cfg.value(0).as_f64();
    let y = cfg.value(1).as_f64();
    let k = cfg.value(2).index() as f64;
    (x - 0.3).powi(2) + 0.25 * (y - 1.0).powi(2) + 0.1 * (k - 2.0).powi(2) + 1.0
}

fn ok(cfg: &Configuration) -> EvalOutcome {
    EvalOutcome::Ok(objective(cfg))
}

/// Fits a surrogate over `n` distinct observations of the mixed space.
fn fitted(n: usize, seed: u64) -> (TpeSurrogate, ObservationHistory, ParameterSpace) {
    let space = mixed_space();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let configs = sample_distinct(&space, n, &mut rng);
    let objectives: Vec<f64> = configs.iter().map(objective).collect();
    let surrogate = TpeSurrogate::fit(
        &space,
        &configs,
        &objectives,
        &SurrogateOptions::default(),
        None,
    );
    let mut history = ObservationHistory::new();
    for (c, &y) in configs.iter().zip(&objectives) {
        history.push(c.clone(), y);
    }
    (surrogate, history, space)
}

#[test]
fn vectorized_with_zero_rounds_is_bit_identical_to_scalar() {
    for seed in 0..20u64 {
        let (surrogate, history, space) = fitted(12, seed);
        let mut scalar_rng = ChaCha8Rng::seed_from_u64(seed ^ 0xabcd);
        let mut vec_rng = scalar_rng.clone();
        let scalar = select_by_proposal(&surrogate, &space, &history, 32, &mut scalar_rng);
        let mut scratch = ProposalScratch::default();
        let pick = select_by_proposal_vectorized(
            &surrogate,
            &space,
            &history,
            None,
            32,
            0,
            &mut vec_rng,
            &mut scratch,
        );
        assert_eq!(pick.config, scalar, "seed {seed}: picks diverged");
        assert_eq!(pick.scored, 32, "seed {seed}");
        // Scoring consumes no randomness: both paths must leave the RNG
        // cursor in the same place.
        assert_eq!(
            scalar_rng.next_u64(),
            vec_rng.next_u64(),
            "seed {seed}: RNG cursors diverged"
        );
        // And the returned score is the pick's exact log_ei.
        assert_eq!(
            pick.score.to_bits(),
            surrogate.log_ei(&pick.config).to_bits(),
            "seed {seed}: selection score is not the pick's log_ei"
        );
    }
}

#[test]
fn sample_good_batch_reproduces_scalar_draws_and_rng_cursor() {
    for seed in 0..10u64 {
        let (surrogate, _history, space) = fitted(10, seed);
        let mut scalar_rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(31) + 5);
        let mut batch_rng = scalar_rng.clone();
        let n = 17;
        let scalar: Vec<Configuration> = (0..n)
            .map(|_| surrogate.sample_good(&space, &mut scalar_rng))
            .collect();
        let mut matrix = CandidateMatrix::default();
        let mut probe = None;
        surrogate.sample_good_batch(&space, n, &mut batch_rng, &mut matrix, &mut probe);
        assert_eq!(matrix.len(), n);
        let probe = probe.as_mut().unwrap();
        for (c, expect) in scalar.iter().enumerate() {
            matrix.write_row(c, probe);
            assert_eq!(&*probe, expect, "seed {seed}: draw {c} diverged");
        }
        assert_eq!(
            scalar_rng.next_u64(),
            batch_rng.next_u64(),
            "seed {seed}: RNG cursors diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `log_ei_batch` == per-candidate `log_ei`, bit for bit, over random
    /// history sizes (small fits exercise the `bad: None` uniform
    /// fallback), candidate counts straddling the scoring chunk size, and
    /// seeds.
    #[test]
    fn log_ei_batch_is_bit_identical_to_scalar(
        n_obs in 2usize..40,
        n_candidates in 1usize..600,
        seed in 0u64..1000,
    ) {
        let (surrogate, _history, space) = fitted(n_obs, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x51c3);
        let mut matrix = CandidateMatrix::default();
        let mut probe = None;
        surrogate.sample_good_batch(&space, n_candidates, &mut rng, &mut matrix, &mut probe);
        let mut scores = Vec::new();
        surrogate.log_ei_batch(&matrix, &mut scores);
        prop_assert_eq!(scores.len(), n_candidates);
        let probe = probe.as_mut().unwrap();
        for (c, &s) in scores.iter().enumerate() {
            matrix.write_row(c, probe);
            prop_assert_eq!(s.to_bits(), surrogate.log_ei(&*probe).to_bits());
        }
    }

    /// Randomized scalar==vectorized selection parity across candidate
    /// counts and history sizes.
    #[test]
    fn zero_round_selection_parity_holds_everywhere(
        n_obs in 3usize..30,
        candidates in 1usize..64,
        seed in 0u64..1000,
    ) {
        let (surrogate, history, space) = fitted(n_obs, seed);
        let mut scalar_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x77);
        let mut vec_rng = scalar_rng.clone();
        let scalar = select_by_proposal(&surrogate, &space, &history, candidates, &mut scalar_rng);
        let mut scratch = ProposalScratch::default();
        let pick = select_by_proposal_vectorized(
            &surrogate, &space, &history, None, candidates, 0, &mut vec_rng, &mut scratch,
        );
        prop_assert_eq!(pick.config, scalar);
        prop_assert_eq!(scalar_rng.next_u64(), vec_rng.next_u64());
    }
}

/// Satellite regression: the `SelectionScored` event reuses the winning
/// selection score instead of re-walking the densities after selection.
#[test]
fn selection_scored_event_carries_the_exact_selection_score() {
    let rec = Arc::new(MemoryRecorder::new());
    let mut t = Tuner::new(
        mixed_space(),
        TunerOptions::default()
            .with_seed(4)
            .with_init_samples(6)
            .with_strategy(SelectionStrategy::Proposal { candidates: 24 }),
    )
    .with_recorder(rec.clone());
    t.run_fallible(12, ok).unwrap();
    let cfg = t.suggest().expect("Proposal always suggests");
    let best_ei = rec
        .events()
        .iter()
        .rev()
        .find_map(|e| match e {
            Event::SelectionScored { best_ei, .. } => Some(*best_ei),
            _ => None,
        })
        .expect("suggest emits SelectionScored");
    // The event score must be exactly the pick's log_ei under the fit the
    // suggestion used (the public `surrogate()` accessor refits over the
    // same history, which is deterministic).
    let surrogate = t.surrogate();
    assert_eq!(
        best_ei.to_bits(),
        surrogate.log_ei(&cfg).to_bits(),
        "event best_ei must be the selection score"
    );
}

/// Satellite regression: the redraw rounds only ever *rescue* stalls. If
/// the vectorized selector concedes a duplicate, the old single-round
/// path (round 0 consumes identical draws) stalled too — per selection,
/// new stalls ⊆ old stalls.
#[test]
fn redraw_rounds_never_stall_where_the_old_path_succeeded() {
    // A 4-configuration space with most of it already evaluated makes
    // duplicate draws the common case.
    let space = ParameterSpace::builder()
        .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1])))
        .param(ParamDef::new("b", Domain::discrete_ints(&[0, 1])))
        .build()
        .unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let configs = sample_distinct(&space, 3, &mut rng);
    let objectives: Vec<f64> = configs.iter().enumerate().map(|(i, _)| i as f64).collect();
    let surrogate = TpeSurrogate::fit(
        &space,
        &configs,
        &objectives,
        &SurrogateOptions::default(),
        None,
    );
    let mut history = ObservationHistory::new();
    for (c, &y) in configs.iter().zip(&objectives) {
        history.push(c.clone(), y);
    }
    let mut scratch = ProposalScratch::default();
    let (mut old_stalls, mut new_stalls) = (0usize, 0usize);
    for seed in 0..200u64 {
        let mut old_rng = ChaCha8Rng::seed_from_u64(seed);
        let mut new_rng = old_rng.clone();
        let old_pick = select_by_proposal(&surrogate, &space, &history, 4, &mut old_rng);
        let old_stalled = history.contains(&old_pick);
        let pick = select_by_proposal_vectorized(
            &surrogate,
            &space,
            &history,
            None,
            4,
            PROPOSAL_REDRAW_ROUNDS,
            &mut new_rng,
            &mut scratch,
        );
        assert!(
            !pick.duplicate || old_stalled,
            "seed {seed}: redraw rounds stalled where one round succeeded"
        );
        old_stalls += old_stalled as usize;
        new_stalls += pick.duplicate as usize;
    }
    assert!(
        new_stalls <= old_stalls,
        "stall counts regressed: {new_stalls} new vs {old_stalls} old"
    );
    // The whole point of the redraw rounds: some stalls are rescued.
    assert!(
        new_stalls < old_stalls,
        "expected the redraw rounds to rescue at least one stall \
         ({old_stalls} old, {new_stalls} new)"
    );
}

fn fingerprint(t: &Tuner) -> (Vec<String>, Vec<f64>, usize) {
    (
        t.history()
            .configs()
            .iter()
            .map(|c| format!("{c:?}"))
            .collect(),
        t.history().objectives().to_vec(),
        t.history().trials(),
    )
}

fn proposal_tuner(seed: u64) -> Tuner {
    Tuner::new(
        mixed_space(),
        TunerOptions::default()
            .with_seed(seed)
            .with_init_samples(6)
            .with_strategy(SelectionStrategy::Proposal { candidates: 16 }),
    )
}

/// `run_fallible(30, ok)` on `proposal_tuner(seed)` under the dedicated
/// serial driver, one entry per seed.
#[rustfmt::skip]
const SERIAL_REFERENCE: [SerialReference; 3] = [
    SerialReference {
        seed: 3,
        trials: 30,
        failures: 0,
        stalls: 0,
        objective_bits: &[
            0x3ff0f1a2f1a043e7, 0x40039d8467341725, 0x4009553645f8b60a, 0x400536ac307403cd,
            0x3ff30de0721a45c2, 0x3ffb4a2bdbe4fc6f, 0x3ff09cae8f0c5033, 0x3ff017fa36ae1b1d,
            0x3ff056c2b024db4a, 0x3ff0b0f2282d8411, 0x3ff022f3761ae7a4, 0x3ff00bff4857dd7e,
            0x3ff02363c4f48b15, 0x3ff0011859461477, 0x3ff1a83c0bbf3a06, 0x3ff00e06aa18b892,
            0x3ff00d76d85131da, 0x3ff04c6ce3f9bfd3, 0x3ff02219d7ea5740, 0x3ff00cfd43c4bb4c,
            0x3ff6780ee86447b0, 0x3ff025823d08a787, 0x3ff00a3aa4289483, 0x3ff057d93a4ed2ee,
            0x3ff00977bab14531, 0x3ff00b8f5e6ddd84, 0x3ff0042e6181a871, 0x3ff035dbc297557e,
            0x3ff082eecc35530d, 0x3ff004c7ade50a7e,
        ],
        configs: &[
            "[Real(0.3426050935155255), Real(0.521761181007149), Index(2)]",
            "[Real(0.5841540890396689), Real(-1.2549227471267383), Index(1)]",
            "[Real(0.029084136818829376), Real(-1.823623218123466), Index(3)]",
            "[Real(0.7817532511589108), Real(-1.297485075004413), Index(3)]",
            "[Real(0.4221776423872565), Real(0.16104708132583312), Index(2)]",
            "[Real(0.06396021454985779), Real(1.9997868834927122), Index(0)]",
            "[Real(0.34821199729940644), Real(0.6209062752133648), Index(2)]",
            "[Real(0.37510009069328754), Real(0.9707539383019099), Index(2)]",
            "[Real(0.34154590795185275), Real(1.2789673836653002), Index(2)]",
            "[Real(0.28245144361148106), Real(1.4142064076143894), Index(2)]",
            "[Real(0.3541535201463145), Real(1.1496711106449293), Index(2)]",
            "[Real(0.3431467751847661), Real(1.065340924889303), Index(2)]",
            "[Real(0.39143018920868133), Real(1.0335016327399542), Index(2)]",
            "[Real(0.3077048873838487), Real(0.9711558609329507), Index(2)]",
            "[Real(0.2756090291908284), Real(0.890858444891456), Index(1)]",
            "[Real(0.35618432160370356), Real(1.0327198081240276), Index(2)]",
            "[Real(0.3554938140494308), Real(1.028816949236625), Index(2)]",
            "[Real(0.2960451246608536), Real(1.2730779563601007), Index(2)]",
            "[Real(0.361936866701124), Real(0.8659962388784676), Index(2)]",
            "[Real(0.32212931745573664), Real(1.1035666523214127), Index(2)]",
            "[Real(0.306071508283152), Real(0.8692448248945674), Index(0)]",
            "[Real(0.28414140434746205), Real(1.1887422909547134), Index(2)]",
            "[Real(0.3263549485852877), Real(0.9150824497869631), Index(2)]",
            "[Real(0.3066428672561812), Real(1.292597137581033), Index(2)]",
            "[Real(0.3294422707472796), Real(0.9239841846583555), Index(2)]",
            "[Real(0.2920051773193323), Real(0.8949598764549622), Index(2)]",
            "[Real(0.3233497375108642), Real(0.9563841993466007), Index(2)]",
            "[Real(0.3296944900817674), Real(0.7784845832219034), Index(2)]",
            "[Real(0.22814499248535186), Real(0.6725683316014296), Index(2)]",
            "[Real(0.31692348536918397), Real(0.9406506229137808), Index(2)]",
        ],
        trace_fnv: 0xa53e8b3616cb2a79,
        next_suggestion: Some("[Real(0.24274616014789233), Real(0.7973011623271063), Index(2)]"),
    },
    SerialReference {
        seed: 11,
        trials: 30,
        failures: 0,
        stalls: 0,
        objective_bits: &[
            0x40061e9f65517eaa, 0x4000e8962bd09213, 0x4000ae18e12dc8cc, 0x3ff9d36f61d68429,
            0x3ff61d9a337dbfbe, 0x40043504ac1cf3e6, 0x3ff4a2edc93e4d73, 0x3ff2dd8f87df7a3c,
            0x3ff23c9f54fa2542, 0x3ff9ba18302bbb61, 0x3ff2e5ded1401a64, 0x3ff235fe2ede397f,
            0x3ff33552560637b5, 0x3ff31bf5236d401d, 0x3ff24624a88df7f8, 0x3ff1e3ec08025203,
            0x3ff1dc4618362aa1, 0x3ff1bf03b8cfdd92, 0x3ff1ab089bad601f, 0x3ff2a443a84c653a,
            0x3ff1b84b81956dbf, 0x3ff1bf5c15f1b9ff, 0x3ff1b8b274ef87de, 0x3ff1b0e1c350c5cf,
            0x3ff2e181bb5f82ce, 0x3ff229c5a42d6927, 0x3ff19f73a4d8de8e, 0x3ff1bb37ccb26223,
            0x3ff20305a1813659, 0x3ff19afeeaaf950f,
        ],
        configs: &[
            "[Real(0.733922803716078), Real(-1.1694823910124237), Index(0)]",
            "[Real(0.31136290550787904), Real(-1.1103919665488777), Index(2)]",
            "[Real(0.4646331930871005), Real(-0.6222260056037419), Index(0)]",
            "[Real(0.4320731215664003), Real(0.11303532255538107), Index(0)]",
            "[Real(0.44983605123684545), Real(-0.019365083842231456), Index(1)]",
            "[Real(0.22813806362223676), Real(-1.4663525133987374), Index(2)]",
            "[Real(0.47511860645280085), Real(0.2022255320531032), Index(1)]",
            "[Real(0.5466495291320872), Real(0.7297706936886271), Index(1)]",
            "[Real(0.4992440120142743), Real(1.0202199858799301), Index(1)]",
            "[Real(0.5300668302844616), Real(1.7874070801987303), Index(0)]",
            "[Real(0.5838125485504668), Real(0.9522031119412049), Index(1)]",
            "[Real(0.48767043018012063), Real(0.8911575333884271), Index(3)]",
            "[Real(0.6042919015441022), Real(1.1780383502402054), Index(3)]",
            "[Real(0.6056141193545251), Real(0.9391530080072571), Index(3)]",
            "[Real(0.504568110409223), Real(1.0332681315180814), Index(1)]",
            "[Real(0.4255007336784238), Real(1.0978689878549346), Index(1)]",
            "[Real(0.4117127334929385), Real(0.8767433559944481), Index(3)]",
            "[Real(0.3850343164669216), Real(1.0872599312218099), Index(3)]",
            "[Real(0.338914349845192), Real(0.8952731249659639), Index(3)]",
            "[Real(0.30684465592408217), Real(1.510124440994351), Index(3)]",
            "[Real(0.386495979972407), Real(0.9929775334060719), Index(3)]",
            "[Real(0.3874305051980106), Real(1.0793621048513815), Index(3)]",
            "[Real(0.32493153218546056), Real(1.1669788411806867), Index(3)]",
            "[Real(0.33303138501485124), Real(1.1355430844004597), Index(3)]",
            "[Real(0.23975259910656416), Real(1.5529036564051832), Index(3)]",
            "[Real(0.25886422694635525), Real(1.3660934265950884), Index(3)]",
            "[Real(0.29881950543558944), Real(1.0755579898473595), Index(3)]",
            "[Real(0.2959590849156369), Real(1.1810103038252078), Index(3)]",
            "[Real(0.3116211908712519), Real(1.3200171234252343), Index(3)]",
            "[Real(0.2872086747904345), Real(1.0266192260397131), Index(3)]",
        ],
        trace_fnv: 0xfbb607f9ac09af0c,
        next_suggestion: Some("[Real(0.30271345148818596), Real(1.0594956611767594), Index(3)]"),
    },
    SerialReference {
        seed: 42,
        trials: 30,
        failures: 0,
        stalls: 0,
        objective_bits: &[
            0x4006c8d1352e00b6, 0x400ae9624faff039, 0x3ff5129615cc3eb9, 0x3ffb8a6a02816ef2,
            0x3ff59a7146fce98d, 0x3ff76a1a77636b6c, 0x3ff54affe5d392c9, 0x3ff53114faf95a69,
            0x3ff4adec5d552d24, 0x3ff406715bd59e2e, 0x3ff578cd0e95b862, 0x3ff385ec0d2621ab,
            0x3ff2f74e902523d0, 0x3ff3c8ad8f5301c7, 0x3ff62dabc720e0fe, 0x3ff45b58e92964a8,
            0x3ff34af95150c754, 0x3ff8dd18ee02e697, 0x3ff23e0eab62f9dc, 0x3ff292b586f00b9a,
            0x3ff2cec7ee95cf58, 0x3ff24cc880f68556, 0x3ff241caac68a69d, 0x3ff30a673349b1c8,
            0x3ff20f6e1830eb4c, 0x3ff1ae5d05176f1e, 0x3ff1a955be70f5f9, 0x3ff19b774de5e68f,
            0x3ff1aafd02031a13, 0x3ff1a7f2d8172773,
        ],
        configs: &[
            "[Real(0.1917361602025135), Real(-1.6354007081096347), Index(3)]",
            "[Real(0.7231518528398883), Real(-1.8878362519855814), Index(1)]",
            "[Real(0.7486987972627297), Real(0.7493444360426595), Index(3)]",
            "[Real(0.15015305778547217), Real(-0.6719310978273945), Index(2)]",
            "[Real(0.887946975546688), Real(1.1345219661458383), Index(2)]",
            "[Real(0.3887438175022757), Real(0.5287095104136275), Index(0)]",
            "[Real(0.7114473401972782), Real(0.503929296912043), Index(3)]",
            "[Real(0.6838343576238385), Real(0.4444675168094522), Index(3)]",
            "[Real(0.7041401725974794), Real(0.6586353044146014), Index(3)]",
            "[Real(0.6880468128219785), Real(1.0630118121124879), Index(3)]",
            "[Real(0.7010814793887314), Real(1.56965280464153), Index(3)]",
            "[Real(0.6304214595608983), Real(1.209928352625155), Index(3)]",
            "[Real(0.5703924892009768), Real(1.2214999750576852), Index(3)]",
            "[Real(0.5318719239314301), Real(1.5752531806900263), Index(3)]",
            "[Real(0.4901319232646779), Real(2.0), Index(3)]",
            "[Real(0.5313362636567377), Real(1.6893043505656231), Index(3)]",
            "[Real(0.47247449173746625), Real(1.5515676704763823), Index(3)]",
            "[Real(0.5216302012092602), Real(1.6476385006524519), Index(0)]",
            "[Real(0.47317575106937654), Real(1.2016022608694519), Index(3)]",
            "[Real(0.4065887175658519), Real(1.444776322530576), Index(3)]",
            "[Real(0.3896853556066795), Real(1.5193849274970568), Index(3)]",
            "[Real(0.44816304393308226), Real(1.2952532147176279), Index(1)]",
            "[Real(0.4503814462471358), Real(1.2716456937581397), Index(1)]",
            "[Real(0.34993146261423413), Real(1.5917657469235402), Index(1)]",
            "[Real(0.39334067487495455), Real(1.2832286855707027), Index(1)]",
            "[Real(0.3674361118822004), Real(1.0456749490683432), Index(1)]",
            "[Real(0.3405118237220879), Real(1.0938153405271913), Index(1)]",
            "[Real(0.2880488048656717), Real(0.964630903525204), Index(1)]",
            "[Real(0.3507401552594722), Real(0.9182533183055386), Index(1)]",
            "[Real(0.31470467297669336), Real(1.1146621324040278), Index(1)]",
        ],
        trace_fnv: 0x70c8d92f2fb99cff,
        next_suggestion: Some("[Real(0.2601152818390722), Real(0.8841620725062609), Index(1)]"),
    },
];

#[test]
fn proposal_batch_of_one_is_bit_identical_to_the_serial_tuner() {
    for reference in &SERIAL_REFERENCE {
        let serial_rec = Arc::new(MemoryRecorder::new());
        let mut serial = proposal_tuner(reference.seed).with_recorder(serial_rec.clone());
        serial.run_fallible(30, ok).unwrap();
        assert_reproduces(&mut serial, &serial_rec, reference);

        let batch_rec = Arc::new(MemoryRecorder::new());
        let mut batch = proposal_tuner(reference.seed).with_recorder(batch_rec.clone());
        batch
            .run_batch_fallible(30, 1, |cfgs, _base| cfgs.iter().map(ok).collect())
            .unwrap();
        assert_reproduces(&mut batch, &batch_rec, reference);
    }
}

#[test]
fn proposal_suggest_batch_of_one_equals_suggest() {
    // Proposal suggestion consumes RNG, so compare two tuners advanced to
    // the identical state rather than calling both on one tuner.
    let mut a = proposal_tuner(7);
    let mut b = proposal_tuner(7);
    a.run_fallible(12, ok).unwrap();
    b.run_fallible(12, ok).unwrap();
    let single = a.suggest().expect("Proposal always suggests");
    let batch = b.suggest_batch(1);
    assert_eq!(batch, vec![single]);
}

#[test]
fn proposal_constant_liar_batch_is_distinct_and_leak_free() {
    let mut t = proposal_tuner(5);
    t.run_fallible(14, ok).unwrap();
    let before = fingerprint(&t);
    let picks = t.suggest_batch(6);
    assert_eq!(
        fingerprint(&t),
        before,
        "suggestion must not mutate history"
    );
    assert_eq!(picks.len(), 6, "continuous spaces never stall a batch");
    for (i, a) in picks.iter().enumerate() {
        assert!(!t.history().contains(a), "pick {i} already evaluated");
        for b in &picks[..i] {
            assert_ne!(a, b, "duplicate pick in one batch");
        }
    }
}

#[test]
fn proposal_batch_runs_spend_the_full_budget_at_any_width() {
    for batch in [1usize, 3, 4, 8] {
        let mut t = proposal_tuner(23);
        let best = t
            .run_batch_fallible(30, batch, |cfgs, _base| cfgs.iter().map(ok).collect())
            .unwrap();
        assert_eq!(t.history().trials(), 30, "batch {batch}");
        assert!(best.objective.is_finite(), "batch {batch}");
    }
}

/// The exhausted-space stall campaign below under the dedicated serial
/// driver: four trials, then duplicate draws until the stall guard ends
/// the run.
#[rustfmt::skip]
const STALL_REFERENCE: SerialReference = SerialReference {
    seed: 2,
    trials: 4,
    failures: 0,
    stalls: 601,
    objective_bits: &[
        0x4000000000000000, 0x4008000000000000, 0x0000000000000000, 0x3ff0000000000000,
    ],
    configs: &[
        "[Index(0), Index(1)]", "[Index(1), Index(1)]",
        "[Index(0), Index(0)]", "[Index(1), Index(0)]",
    ],
    trace_fnv: 0x8ccc352787b495c4,
    next_suggestion: None,
};

/// Exhausted-space Proposal runs stall out gracefully in both serial and
/// batch mode, with the stall accounting (`ProposalStalled`) of the
/// dedicated serial driver.
#[test]
fn proposal_stall_accounting_matches_between_serial_and_batch() {
    let tiny = || {
        ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1])))
            .param(ParamDef::new("b", Domain::discrete_ints(&[0, 1])))
            .build()
            .unwrap()
    };
    let opts = || {
        TunerOptions::default()
            .with_seed(STALL_REFERENCE.seed)
            .with_init_samples(2)
            .with_strategy(SelectionStrategy::Proposal { candidates: 4 })
    };
    let eval = |cfg: &Configuration| {
        EvalOutcome::Ok(cfg.value(0).index() as f64 + 2.0 * cfg.value(1).index() as f64)
    };
    let serial_rec = Arc::new(MemoryRecorder::new());
    let mut serial = Tuner::new(tiny(), opts()).with_recorder(serial_rec.clone());
    serial.run_fallible(6, eval).unwrap();
    let batch_rec = Arc::new(MemoryRecorder::new());
    let mut batch = Tuner::new(tiny(), opts()).with_recorder(batch_rec.clone());
    batch
        .run_batch_fallible(6, 1, |cfgs, _base| cfgs.iter().map(eval).collect())
        .unwrap();
    let stalls = |rec: &MemoryRecorder| {
        rec.events().iter().find_map(|e| match e {
            Event::ProposalStalled { stalls, .. } => Some(*stalls),
            _ => None,
        })
    };
    for (t, rec) in [(&mut serial, &serial_rec), (&mut batch, &batch_rec)] {
        // The 4-config space caps at 4 trials; everything after is stalls,
        // reported once with the run total.
        assert_eq!(stalls(rec), Some(STALL_REFERENCE.stalls as u64));
        assert_reproduces(t, rec, &STALL_REFERENCE);
    }
}

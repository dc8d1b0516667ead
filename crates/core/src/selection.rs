//! Candidate selection strategies (paper §III-D).
//!
//! Given a fitted surrogate, the next configuration to evaluate is the one
//! maximizing expected improvement. Two regimes:
//!
//! - **Ranking** — for discrete, finite, enumerable spaces (the common HPC
//!   case): score *every* unseen configuration and take the argmax. This
//!   also "eliminates the scenario where duplicate samples are selected"
//!   (paper §VIII).
//! - **Proposal** — for continuous or huge spaces: draw candidates from the
//!   good density `p_g` and keep the best-scoring one. Sampling from `p_g`
//!   focuses on promising regions while the randomness keeps exploring.
//!
//! Ranking is the per-iteration hot path (pools reach 17 815 configs for
//! Kripke energy, ranked once per iteration per repetition), so it runs on
//! the batch-scoring engine: a [`ScoreTable`](crate::surrogate::ScoreTable)
//! of precomputed per-value scores and a [`PoolMask`] marking seen pool
//! positions. The argmax still ranks every unseen configuration, but the
//! tuner takes it with [`rank_trie`]: an exact branch-and-bound search over
//! a [`PoolTrie`] of the pool that skips every prefix whose score bound
//! cannot beat the incumbent. [`rank_encoded`], the rayon-chunked sweep of
//! a contiguous [`PoolEncoding`], is its fallback for non-finite tables and
//! the reference it must match pick for pick (see [`rank_encoded`] for the
//! tie-break and determinism contract).

use crate::history::ObservationHistory;
use crate::surrogate::{CandidateMatrix, TpeSurrogate};
use hiperbot_space::pool::{
    IndexBuffer, PoolEncoding, PoolIndex, PoolMask, PoolTrie, UnseenCounts,
};
use hiperbot_space::{Configuration, ParameterSpace};
use rayon::prelude::*;
use rustc_hash::FxHashSet;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Which selection regime the tuner uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SelectionStrategy {
    /// Exhaustively rank all unseen configurations of a finite space.
    #[default]
    Ranking,
    /// Sample this many candidates from `p_g` and keep the best scorer.
    Proposal {
        /// Number of candidates drawn per iteration.
        candidates: usize,
    },
}

/// Fixed chunk width of the parallel ranking argmax. Chunk boundaries
/// depend only on this constant (never on the worker count), which is one
/// half of the bit-identical-across-thread-counts guarantee; the other half
/// is the in-order chunk reduction in [`rank_encoded`].
pub const RANK_CHUNK: usize = 4096;

/// Argmax of one chunk of the encoded pool. Scans positions in ascending
/// order keeping the first strict maximum, so within a chunk the lowest
/// pool index wins ties.
fn best_in_chunk<T: PoolIndex>(
    buf: &[T],
    n_params: usize,
    tables: &[&[f64]],
    seen: &PoolMask,
    start: usize,
    end: usize,
) -> Option<(f64, usize)> {
    let mut best: Option<(f64, usize)> = None;
    for c in start..end {
        if seen.get(c) {
            continue;
        }
        let row = &buf[c * n_params..(c + 1) * n_params];
        let mut score = 0.0;
        for (p, v) in row.iter().enumerate() {
            score += tables[p][v.as_usize()];
        }
        match best {
            Some((s, _)) if s >= score => {}
            _ => best = Some((score, c)),
        }
    }
    best
}

/// The batch-scoring sweep: scores every unseen row of the pool and
/// returns the pool position of the best one, or `None` when every
/// position is seen.
///
/// The tuner ranks with [`rank_trie`], which returns exactly this answer
/// while scoring far fewer rows; the sweep is its fallback when a table
/// holds a non-finite entry, and the reference that the benchmark's replay
/// and the parity suites re-pick against.
///
/// **Tie-breaking contract:** among equal-scoring candidates the **lowest
/// pool index** wins. **Determinism contract:** the result is bit-identical
/// regardless of `RAYON_NUM_THREADS` — every candidate's score is a fixed
/// left-to-right sum over its parameters, chunk boundaries are a function
/// of [`RANK_CHUNK`] only, and chunk winners are reduced in chunk order
/// with a strict `>` (an earlier chunk's equal score survives).
///
/// # Panics
/// Panics if `tables`' arity differs from the encoding's, or if the mask
/// length differs from the pool length.
pub fn rank_encoded(tables: &[&[f64]], encoding: &PoolEncoding, seen: &PoolMask) -> Option<usize> {
    let n = encoding.n_configs();
    assert_eq!(seen.len(), n, "mask/pool length mismatch");
    if n == 0 {
        return None;
    }
    assert_eq!(tables.len(), encoding.n_params(), "arity mismatch");
    let n_params = encoding.n_params();
    let n_chunks = n.div_ceil(RANK_CHUNK);
    let partials: Vec<Option<(f64, usize)>> = (0..n_chunks)
        .into_par_iter()
        .map(|ci| {
            let start = ci * RANK_CHUNK;
            let end = (start + RANK_CHUNK).min(n);
            match encoding.buffer() {
                IndexBuffer::U16(b) => best_in_chunk(b, n_params, tables, seen, start, end),
                IndexBuffer::U32(b) => best_in_chunk(b, n_params, tables, seen, start, end),
            }
        })
        .collect();
    let mut best: Option<(f64, usize)> = None;
    for (score, c) in partials.into_iter().flatten() {
        match best {
            Some((s, _)) if s >= score => {}
            _ => best = Some((score, c)),
        }
    }
    best.map(|(_, c)| c)
}

/// The outcome of one [`rank_trie`] search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrieRank {
    /// The pool position of the best unseen configuration (`None` when
    /// every position is seen): always [`rank_encoded`]'s answer.
    pub pos: Option<usize>,
    /// Trie nodes the search scored (inner nodes and leaves); the pool
    /// size when the sweep fallback ran.
    pub visited: u64,
}

/// The Ranking argmax by depth-first branch and bound over the pool trie.
///
/// Returns exactly what [`rank_encoded`] returns on the same tables and
/// mask — the best unseen score, ties to the lowest pool position — while
/// scoring only the prefixes that could still hold the winner:
///
/// - A node's *prefix score* folds `0.0 + t_0[v_0] + … + t_d[v_d]` left to
///   right, as the sweep does, so a leaf's score has the sweep's bits.
/// - Its *bound* continues that fold with each remaining parameter's
///   column maximum, in parameter order. Round-to-nearest addition is
///   monotone, so the bound is ≥ every leaf score below the node with no
///   margin. (A precomputed suffix sum would reassociate the fold and is
///   not a valid bound.)
/// - A node is skipped when no unseen position lies below it, when its
///   bound is below the incumbent's score, or when the bound ties it and
///   the node's lowest position is not below the incumbent's.
/// - Inner children are visited in descending bound (ties by ascending
///   index); the last level is an ascending scan. Since that order is not
///   pool order, a leaf replaces the incumbent only if it scores higher,
///   or equal at a lower position.
///
/// `counts` must be `trie`'s unseen counts for `seen`. If any table entry
/// is non-finite the search falls back to [`rank_encoded`]: a NaN score's
/// outcome there depends on visit order, which only the sweep reproduces.
///
/// # Panics
/// Panics if `tables`' arity differs from the trie's, or if the mask
/// length differs from the pool length.
pub fn rank_trie(
    tables: &[&[f64]],
    trie: &PoolTrie,
    counts: &UnseenCounts,
    seen: &PoolMask,
) -> TrieRank {
    let n = trie.n_configs();
    assert_eq!(seen.len(), n, "mask/pool length mismatch");
    if n == 0 {
        return TrieRank {
            pos: None,
            visited: 0,
        };
    }
    assert_eq!(tables.len(), trie.n_params(), "arity mismatch");
    if tables.iter().any(|t| t.iter().any(|s| !s.is_finite())) {
        return TrieRank {
            pos: rank_encoded(tables, trie.encoding(), seen),
            visited: n as u64,
        };
    }
    let col_max = tables
        .iter()
        .map(|t| t.iter().copied().fold(f64::NEG_INFINITY, f64::max))
        .collect();
    let last = trie.n_params() - 1;
    let mut scratch = vec![(0.0, 0.0, 0u32); (0..last).map(|d| trie.max_fanout(d)).sum()];
    let mut search = TrieSearch {
        tables,
        col_max,
        trie,
        counts,
        seen,
        best: None,
        visited: 0,
    };
    search.descend(0, 0..trie.values(0).len(), 0.0, &mut scratch);
    TrieRank {
        pos: search.best.map(|(_, pos)| pos),
        visited: search.visited,
    }
}

/// The state of one [`rank_trie`] search.
struct TrieSearch<'a> {
    tables: &'a [&'a [f64]],
    /// Each parameter's largest table entry.
    col_max: Vec<f64>,
    trie: &'a PoolTrie,
    counts: &'a UnseenCounts,
    seen: &'a PoolMask,
    /// The incumbent `(score, pool position)`.
    best: Option<(f64, usize)>,
    visited: u64,
}

impl TrieSearch<'_> {
    /// Whether a subtree whose leaf scores are at most `bound` and whose
    /// positions start at `first` may hold a leaf that beats the incumbent.
    fn may_beat(&self, bound: f64, first: usize) -> bool {
        match self.best {
            None => true,
            Some((score, pos)) => bound > score || (bound == score && first < pos),
        }
    }

    /// Searches the nodes `nodes` of level `depth`, siblings under a
    /// parent whose prefix score is `prefix`. `scratch` holds at least the
    /// fan-out of every inner level from `depth` down.
    fn descend(
        &mut self,
        depth: usize,
        nodes: Range<usize>,
        prefix: f64,
        scratch: &mut [(f64, f64, u32)],
    ) {
        let table = self.tables[depth];
        let values = self.trie.values(depth);
        if depth + 1 == self.trie.n_params() {
            for pos in nodes {
                if self.seen.get(pos) {
                    continue;
                }
                self.visited += 1;
                let score = prefix + table[values[pos] as usize];
                match self.best {
                    Some((s, p)) if s > score || (s == score && p < pos) => {}
                    _ => self.best = Some((score, pos)),
                }
            }
            return;
        }
        let (children, rest) = scratch.split_at_mut(self.trie.max_fanout(depth));
        let mut len = 0;
        for node in nodes {
            if self.counts.get(depth, node) == 0 {
                continue;
            }
            self.visited += 1;
            let score = prefix + table[values[node] as usize];
            let bound = self.col_max[depth + 1..]
                .iter()
                .fold(score, |acc, &m| acc + m);
            children[len] = (bound, score, node as u32);
            len += 1;
        }
        let children = &mut children[..len];
        children.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.2.cmp(&b.2)));
        for &(bound, score, node) in children.iter() {
            let node = node as usize;
            if self.may_beat(bound, self.trie.first_position(depth, node)) {
                self.descend(depth + 1, self.trie.children(depth, node), score, rest);
            }
        }
    }
}

/// Extra redraw rounds the vectorized Proposal selector spends hunting for
/// an unseen candidate before conceding a duplicate stall. Each round
/// samples and scores a fresh candidate matrix *inside* the selection (no
/// surrogate refit), so a round costs a fraction of the full
/// fit-suggest-skip iteration a tuner-level stall burns. Zero rounds
/// reproduces the scalar sample-then-score loop exactly (the reference
/// `select_by_proposal` in `tests/common/oracle.rs`).
pub const PROPOSAL_REDRAW_ROUNDS: usize = 3;

/// Reusable buffers for the vectorized Proposal selector: the SoA
/// candidate matrix, the score vector, and the probe [`Configuration`]
/// that carries rows through feasibility and seen checks. One instance
/// lives on the tuner and is recycled every iteration.
#[derive(Debug, Default)]
pub struct ProposalScratch {
    matrix: CandidateMatrix,
    scores: Vec<f64>,
    probe: Option<Configuration>,
}

/// The outcome of one vectorized Proposal selection.
#[derive(Debug, Clone)]
pub struct ProposalPick {
    /// The selected configuration.
    pub config: Configuration,
    /// The winning candidate's `log_ei` — the exact selection score, so
    /// callers never re-score the pick (`SelectionScored.best_ei` reuses
    /// this value).
    pub score: f64,
    /// `true` when every draw in every round duplicated history (or
    /// `extra_seen`): the pick is the best already-seen draw and callers
    /// should count a stall instead of evaluating it again.
    pub duplicate: bool,
    /// Total candidates sampled and scored across all rounds.
    pub scored: u64,
}

/// The vectorized Proposal selector: samples `candidates` draws from `p_g`
/// into a structure-of-arrays matrix, scores them with the batched
/// bit-identical `log_ei` kernel, and picks the best unseen draw with the
/// lowest-draw-index tie-break (first strict maximum in draw order — the
/// same winner the scalar reference loop in `tests/common/oracle.rs`
/// keeps).
///
/// When a round contains no unseen candidate, up to `redraw_rounds`
/// additional sample+score rounds run before the selector concedes and
/// returns the best seen draw with `duplicate: true`. With
/// `redraw_rounds = 0` the function consumes exactly the RNG draws of that
/// scalar loop and returns its exact pick.
///
/// `extra_seen` extends the duplicate check beyond evaluated history —
/// the constant-liar batch path passes its in-flight picks so one batch
/// never proposes the same configuration twice.
#[allow(clippy::too_many_arguments)]
pub fn select_by_proposal_vectorized<R: rand::Rng + ?Sized>(
    surrogate: &TpeSurrogate,
    space: &ParameterSpace,
    history: &ObservationHistory,
    extra_seen: Option<&FxHashSet<Configuration>>,
    candidates: usize,
    redraw_rounds: usize,
    rng: &mut R,
    scratch: &mut ProposalScratch,
) -> ProposalPick {
    assert!(candidates > 0, "need at least one candidate");
    let mut best_dup: Option<(f64, Configuration)> = None;
    let mut scored = 0u64;
    for _ in 0..=redraw_rounds {
        surrogate.sample_good_batch(
            space,
            candidates,
            rng,
            &mut scratch.matrix,
            &mut scratch.probe,
        );
        surrogate.log_ei_batch(&scratch.matrix, &mut scratch.scores);
        scored += candidates as u64;
        let probe = scratch.probe.as_mut().expect("sampled at least one row");
        let mut best_unseen: Option<(f64, usize)> = None;
        for (c, &score) in scratch.scores.iter().enumerate() {
            scratch.matrix.write_row(c, probe);
            let seen = history.contains(probe) || extra_seen.is_some_and(|s| s.contains(probe));
            if seen {
                if best_dup.as_ref().is_none_or(|(s, _)| score > *s) {
                    best_dup = Some((score, probe.clone()));
                }
            } else if best_unseen.is_none_or(|(s, _)| score > s) {
                best_unseen = Some((score, c));
            }
        }
        if let Some((score, c)) = best_unseen {
            scratch.matrix.write_row(c, probe);
            return ProposalPick {
                config: probe.clone(),
                score,
                duplicate: false,
                scored,
            };
        }
    }
    let (score, config) = best_dup.expect("candidates > 0 guarantees a draw");
    ProposalPick {
        config,
        score,
        duplicate: true,
        scored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surrogate::SurrogateOptions;
    use hiperbot_space::{Domain, ParamDef};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn space() -> ParameterSpace {
        ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1, 2, 3])))
            .build()
            .unwrap()
    }

    fn surrogate_preferring_a0(space: &ParameterSpace) -> (TpeSurrogate, ObservationHistory) {
        let mut history = ObservationHistory::new();
        history.push(Configuration::from_indices(&[0]), 1.0);
        history.push(Configuration::from_indices(&[2]), 10.0);
        history.push(Configuration::from_indices(&[3]), 11.0);
        let sur = TpeSurrogate::fit(
            space,
            history.configs(),
            history.objectives(),
            &SurrogateOptions::default(),
            None,
        );
        (sur, history)
    }

    /// The Ranking argmax over `pool`, skipping configurations in
    /// `history`: [`rank_encoded`] on the surrogate's score table.
    fn rank(
        surrogate: &TpeSurrogate,
        pool: &[Configuration],
        history: &ObservationHistory,
    ) -> Option<Configuration> {
        let table = surrogate.score_table();
        let tables = table.discrete_tables().expect("fully discrete");
        let encoding = PoolEncoding::encode(pool).expect("encodable");
        let mut seen = PoolMask::new(pool.len());
        for (i, cfg) in pool.iter().enumerate() {
            if history.contains(cfg) {
                seen.set(i);
            }
        }
        rank_encoded(&tables, &encoding, &seen).map(|i| pool[i].clone())
    }

    /// One scalar-equivalent Proposal pick: no redraw rounds, no
    /// in-flight picks.
    fn propose<R: rand::Rng>(
        surrogate: &TpeSurrogate,
        space: &ParameterSpace,
        history: &ObservationHistory,
        candidates: usize,
        rng: &mut R,
    ) -> Configuration {
        let mut scratch = ProposalScratch::default();
        select_by_proposal_vectorized(
            surrogate,
            space,
            history,
            None,
            candidates,
            0,
            rng,
            &mut scratch,
        )
        .config
    }

    #[test]
    fn ranking_picks_best_unseen() {
        let s = space();
        let (sur, history) = surrogate_preferring_a0(&s);
        let pool = s.enumerate();
        // a=0 scores best but is seen; a=1 is the best unseen (unseen values
        // score between good and bad under smoothing).
        let pick = rank(&sur, &pool, &history).unwrap();
        assert_eq!(pick, Configuration::from_indices(&[1]));
    }

    #[test]
    fn ranking_exhausts_to_none() {
        let s = space();
        let mut history = ObservationHistory::new();
        for i in 0..4 {
            history.push(Configuration::from_indices(&[i]), i as f64);
        }
        let sur = TpeSurrogate::fit(
            &s,
            history.configs(),
            history.objectives(),
            &SurrogateOptions::default(),
            None,
        );
        assert!(rank(&sur, &s.enumerate(), &history).is_none());
    }

    #[test]
    fn ranking_never_duplicates() {
        let s = space();
        let (sur, mut history) = surrogate_preferring_a0(&s);
        let pool = s.enumerate();
        let mut seen = std::collections::HashSet::new();
        for c in history.configs() {
            seen.insert(c.clone());
        }
        while let Some(pick) = rank(&sur, &pool, &history) {
            assert!(seen.insert(pick.clone()), "duplicate selection {pick:?}");
            history.push(pick, 5.0);
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn ranking_ties_break_to_the_lowest_pool_index() {
        // Both observations sit at b=0, so parameter "b"'s good and bad
        // histograms are identical and every value of b contributes an
        // *exactly* zero score term: candidates differing only in b are
        // deliberate bit-level ties. The contract demands the lowest pool
        // index among them.
        let s = ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1, 2])))
            .param(ParamDef::new("b", Domain::discrete_ints(&[0, 1, 2, 3])))
            .build()
            .unwrap();
        let mut history = ObservationHistory::new();
        history.push(Configuration::from_indices(&[0, 0]), 1.0); // good
        history.push(Configuration::from_indices(&[1, 0]), 10.0); // bad
        let sur = TpeSurrogate::fit(
            &s,
            history.configs(),
            history.objectives(),
            &SurrogateOptions::default(),
            None,
        );
        let pool = s.enumerate();
        // Sanity: the tie really exists — (0,1), (0,2), (0,3) score
        // bit-identically.
        let t = sur.score_table();
        let tied = t.score(&Configuration::from_indices(&[0, 1]));
        for b in [2, 3] {
            assert_eq!(
                t.score(&Configuration::from_indices(&[0, b])).to_bits(),
                tied.to_bits(),
                "test premise: deliberate score tie"
            );
        }
        // (0,0) is seen; a=0 is the observed-good value, so the best unseen
        // candidates are (0,1), (0,2), (0,3) — all tied. The lowest pool
        // index among them is (0,1).
        let pick = rank(&sur, &pool, &history).unwrap();
        assert_eq!(pick, Configuration::from_indices(&[0, 1]));
    }

    #[test]
    fn rank_encoded_handles_empty_and_exhausted_pools() {
        let enc = PoolEncoding::encode(&[]).unwrap();
        assert_eq!(rank_encoded(&[], &enc, &PoolMask::new(0)), None);

        let pool = vec![Configuration::from_indices(&[0])];
        let enc = PoolEncoding::encode(&pool).unwrap();
        let mut seen = PoolMask::new(1);
        seen.set(0);
        let table: &[f64] = &[0.0];
        assert_eq!(rank_encoded(&[table], &enc, &seen), None);
    }

    #[test]
    fn proposal_returns_feasible_and_mostly_unseen() {
        let s = space();
        let (sur, history) = surrogate_preferring_a0(&s);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..50 {
            let pick = propose(&sur, &s, &history, 16, &mut rng);
            assert!(s.is_feasible(&pick));
        }
    }

    #[test]
    fn proposal_prefers_high_scoring_draws() {
        let s = space();
        let (sur, _) = surrogate_preferring_a0(&s);
        let empty = ObservationHistory::new();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        // With many candidates per draw, the argmax should almost always be
        // the known-good value a=0.
        let hits = (0..100)
            .filter(|_| {
                propose(&sur, &s, &empty, 32, &mut rng) == Configuration::from_indices(&[0])
            })
            .count();
        assert!(hits > 90, "picked a=0 only {hits}/100 times");
    }
}

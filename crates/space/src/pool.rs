//! Flattened pool encodings for the batch-scoring engine.
//!
//! The Ranking selection strategy scores *every* unseen configuration of an
//! enumerated pool each iteration. Walking `Vec<Configuration>` for that is
//! cache-hostile: each candidate is a separate heap allocation of tagged
//! [`ParamValue`](crate::config::ParamValue)s. A [`PoolEncoding`] flattens a
//! fully discrete pool once into a contiguous **config-major** buffer of
//! domain indices (`[cfg0_p0, cfg0_p1, …, cfg1_p0, …]`), narrowed to `u16`
//! when every index fits (the common case — HPC domains have at most a few
//! dozen levels), so the scoring loop is a linear sweep over dense memory.
//!
//! [`PoolMask`] is the companion per-pool-position bitset: the tuner marks
//! evaluated positions instead of hashing full configurations against the
//! history on every candidate visit.
//!
//! [`PoolTrie`] arranges a lexicographically ordered pool as a prefix trie
//! (one level per parameter, the last level being the pool itself), and
//! [`UnseenCounts`] holds the number of unseen positions below each inner
//! node. Together they let the Ranking argmax prune whole prefixes by a
//! score bound instead of sweeping every row.

use crate::config::{Configuration, ParamValue};
use std::ops::Range;

/// An index type a pool can be encoded with.
pub trait PoolIndex: Copy + Send + Sync {
    /// Widens the stored index back to `usize`.
    fn as_usize(self) -> usize;
}

impl PoolIndex for u16 {
    #[inline]
    fn as_usize(self) -> usize {
        self as usize
    }
}

impl PoolIndex for u32 {
    #[inline]
    fn as_usize(self) -> usize {
        self as usize
    }
}

/// The contiguous config-major index buffer backing a [`PoolEncoding`].
#[derive(Debug, Clone)]
pub enum IndexBuffer {
    /// Narrow encoding: every domain index fits in 16 bits.
    U16(Vec<u16>),
    /// Wide encoding for (pathologically) large domains.
    U32(Vec<u32>),
}

/// A `&[Configuration]` pool flattened into one contiguous index buffer.
///
/// Built once per pool (the pool itself is built once per tuning run) and
/// reused across iterations; see the crate docs of [`pool`](self).
#[derive(Debug, Clone)]
pub struct PoolEncoding {
    n_configs: usize,
    n_params: usize,
    buf: IndexBuffer,
}

impl PoolEncoding {
    /// Flattens `pool`. Returns `None` if the pool cannot be encoded: a
    /// configuration holds a continuous value, or configurations disagree
    /// on arity (callers fall back to the exact per-`Configuration` path).
    pub fn encode(pool: &[Configuration]) -> Option<Self> {
        let n_configs = pool.len();
        let n_params = pool.first().map_or(0, |c| c.len());
        let mut max_index = 0usize;
        for cfg in pool {
            if cfg.len() != n_params {
                return None;
            }
            for &v in cfg.values() {
                match v {
                    ParamValue::Index(i) => max_index = max_index.max(i),
                    ParamValue::Real(_) => return None,
                }
            }
        }
        let buf = if max_index <= u16::MAX as usize {
            IndexBuffer::U16(
                pool.iter()
                    .flat_map(|c| c.values().iter().map(|v| v.index() as u16))
                    .collect(),
            )
        } else {
            IndexBuffer::U32(
                pool.iter()
                    .flat_map(|c| c.values().iter().map(|v| v.index() as u32))
                    .collect(),
            )
        };
        Some(Self {
            n_configs,
            n_params,
            buf,
        })
    }

    /// Number of configurations in the encoded pool.
    pub fn n_configs(&self) -> usize {
        self.n_configs
    }

    /// Arity (values per configuration).
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// The raw config-major buffer (length `n_configs * n_params`).
    pub fn buffer(&self) -> &IndexBuffer {
        &self.buf
    }

    /// The domain index of parameter `param` in configuration `config`.
    ///
    /// # Panics
    /// Panics if either coordinate is out of range.
    pub fn index(&self, config: usize, param: usize) -> usize {
        assert!(config < self.n_configs && param < self.n_params);
        let at = config * self.n_params + param;
        match &self.buf {
            IndexBuffer::U16(b) => b[at] as usize,
            IndexBuffer::U32(b) => b[at] as usize,
        }
    }
}

/// A fixed-length bitset over pool positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolMask {
    words: Vec<u64>,
    len: usize,
}

impl PoolMask {
    /// Creates an all-clear mask over `len` positions.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask covers zero positions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets position `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "mask position {i} out of {}", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Whether position `i` is set.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "mask position {i} out of {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Clears position `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "mask position {i} out of {}", self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Number of set positions.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// One level of a [`PoolTrie`]: a node per distinct prefix of length
/// `depth + 1`, in pool order.
#[derive(Debug, Clone)]
struct TrieLevel {
    /// Domain index of this level's parameter at each node.
    value: Vec<u32>,
    /// Node `j`'s children are `child_start[j]..child_start[j + 1]` in the
    /// next level. Empty at the last level.
    child_start: Vec<u32>,
    /// Lowest pool position below each node. Empty at the last level,
    /// where node `i` is pool position `i`.
    first_pos: Vec<u32>,
    /// Most nodes of this level sharing one parent (the root counts as
    /// the parent of level 0).
    max_fanout: usize,
}

/// A prefix trie over a pool in lexicographic order (last parameter
/// fastest, as [`ParameterSpace::enumerate`](crate::ParameterSpace::enumerate)
/// emits it), built once beside the pool's [`PoolEncoding`], which it
/// owns.
///
/// Level `d` holds one node per distinct length-`d + 1` prefix; children of
/// a node are a contiguous range of the next level, and the last level is
/// the pool itself. Every node knows its value index, its child range and
/// the lowest pool position below it.
#[derive(Debug, Clone)]
pub struct PoolTrie {
    encoding: PoolEncoding,
    levels: Vec<TrieLevel>,
}

impl PoolTrie {
    /// Builds the trie of `encoding`'s pool.
    ///
    /// # Panics
    /// Panics if the pool is not strictly increasing in lexicographic order
    /// (duplicates included), or if a non-empty pool has no parameters.
    pub fn new(encoding: PoolEncoding) -> Self {
        let (n, n_params) = (encoding.n_configs(), encoding.n_params());
        assert!(n == 0 || n_params > 0, "a non-empty pool needs parameters");
        let mut levels: Vec<TrieLevel> = (0..n_params)
            .map(|_| TrieLevel {
                value: Vec::new(),
                child_start: Vec::new(),
                first_pos: Vec::new(),
                max_fanout: 0,
            })
            .collect();
        let pos_u32 = |i: usize| u32::try_from(i).expect("pool positions fit in u32");
        for i in 0..n {
            // The first parameter where this row leaves the previous one:
            // every level from there down starts a new node.
            let split = if i == 0 {
                0
            } else {
                let d = (0..n_params)
                    .find(|&d| encoding.index(i, d) != encoding.index(i - 1, d))
                    .unwrap_or_else(|| panic!("pool position {i} duplicates its predecessor"));
                assert!(
                    encoding.index(i, d) > encoding.index(i - 1, d),
                    "pool is not in lexicographic order at position {i}"
                );
                d
            };
            for d in split..n_params {
                let next_len = levels.get(d + 1).map(|l| pos_u32(l.value.len()));
                let level = &mut levels[d];
                let value = u32::try_from(encoding.index(i, d)).expect("domain indices fit in u32");
                level.value.push(value);
                if let Some(next_len) = next_len {
                    level.child_start.push(next_len);
                    level.first_pos.push(pos_u32(i));
                }
            }
        }
        // Close each inner level's child ranges and record the fan-outs;
        // the root's children are all of level 0.
        if let Some(first) = levels.first_mut() {
            first.max_fanout = first.value.len();
        }
        for d in 0..n_params.saturating_sub(1) {
            let end = pos_u32(levels[d + 1].value.len());
            levels[d].child_start.push(end);
            levels[d + 1].max_fanout = levels[d]
                .child_start
                .windows(2)
                .map(|w| (w[1] - w[0]) as usize)
                .max()
                .unwrap_or(0);
        }
        Self { encoding, levels }
    }

    /// The pool's config-major encoding.
    pub fn encoding(&self) -> &PoolEncoding {
        &self.encoding
    }

    /// Number of pool positions (nodes of the last level).
    pub fn n_configs(&self) -> usize {
        self.encoding.n_configs()
    }

    /// Number of levels (parameters).
    pub fn n_params(&self) -> usize {
        self.levels.len()
    }

    /// The value index of every node of level `depth`.
    pub fn values(&self, depth: usize) -> &[u32] {
        &self.levels[depth].value
    }

    /// The child range of node `node` of inner level `depth`, in level
    /// `depth + 1`.
    #[inline]
    pub fn children(&self, depth: usize, node: usize) -> Range<usize> {
        let starts = &self.levels[depth].child_start;
        starts[node] as usize..starts[node + 1] as usize
    }

    /// The lowest pool position below node `node` of level `depth`.
    #[inline]
    pub fn first_position(&self, depth: usize, node: usize) -> usize {
        match self.levels[depth].first_pos.get(node) {
            Some(&p) => p as usize,
            None => node, // the last level is the pool
        }
    }

    /// Most nodes of level `depth` that share one parent.
    pub fn max_fanout(&self, depth: usize) -> usize {
        self.levels[depth].max_fanout
    }

    /// The pool position of `cfg`, found by descending the child ranges;
    /// `None` when `cfg` is not in the pool.
    pub fn position(&self, cfg: &Configuration) -> Option<usize> {
        if cfg.len() != self.n_params() {
            return None;
        }
        let mut range = 0..self.levels.first()?.value.len();
        for (d, level) in self.levels.iter().enumerate() {
            let ParamValue::Index(v) = cfg.value(d) else {
                return None;
            };
            let v = u32::try_from(v).ok()?;
            let node = range.start + level.value[range.clone()].binary_search(&v).ok()?;
            if d + 1 == self.levels.len() {
                return Some(node);
            }
            range = self.children(d, node);
        }
        None
    }

    /// Unseen-position counts for every inner node, given the `seen` mask.
    ///
    /// # Panics
    /// Panics if the mask length differs from the pool length.
    pub fn unseen_counts(&self, seen: &PoolMask) -> UnseenCounts {
        assert_eq!(seen.len(), self.n_configs(), "mask/pool length mismatch");
        let inner = self.levels.len().saturating_sub(1);
        let mut levels: Vec<Vec<u32>> = vec![Vec::new(); inner];
        for d in (0..inner).rev() {
            let counts = (0..self.levels[d].value.len())
                .map(|j| {
                    let children = self.children(d, j);
                    match levels.get(d + 1) {
                        Some(below) => below[children].iter().sum(),
                        None => children.filter(|&i| !seen.get(i)).count() as u32,
                    }
                })
                .collect();
            levels[d] = counts;
        }
        UnseenCounts { levels }
    }

    /// Records pool position `pos` as seen: decrements the count of each
    /// of its ≤ P − 1 inner ancestors. The caller keeps the seen mask and
    /// marks each position at most once.
    ///
    /// # Panics
    /// Panics if an ancestor's count is already zero (a position marked
    /// twice).
    pub fn mark(&self, counts: &mut UnseenCounts, pos: usize) {
        self.walk_ancestors(pos, |d, j| {
            let count = &mut counts.levels[d][j];
            *count = count.checked_sub(1).expect("pool position marked twice");
        });
    }

    /// Undoes [`mark`](Self::mark) for `pos`.
    pub fn unmark(&self, counts: &mut UnseenCounts, pos: usize) {
        self.walk_ancestors(pos, |d, j| counts.levels[d][j] += 1);
    }

    /// Calls `f(depth, node)` for each inner ancestor of `pos`, top down.
    fn walk_ancestors(&self, pos: usize, mut f: impl FnMut(usize, usize)) {
        assert!(pos < self.n_configs(), "pool position {pos} out of range");
        let inner = self.levels.len().saturating_sub(1);
        let mut range = 0..self.levels.first().map_or(0, |l| l.value.len());
        for d in 0..inner {
            let first = &self.levels[d].first_pos[range.clone()];
            let node = range.start + first.partition_point(|&p| p as usize <= pos) - 1;
            f(d, node);
            range = self.children(d, node);
        }
    }
}

/// The number of unseen pool positions below each inner node of a
/// [`PoolTrie`], built by [`PoolTrie::unseen_counts`] and kept in step with
/// a seen mask by [`PoolTrie::mark`] / [`PoolTrie::unmark`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnseenCounts {
    levels: Vec<Vec<u32>>,
}

impl UnseenCounts {
    /// Unseen positions below node `node` of inner level `depth`.
    #[inline]
    pub fn get(&self, depth: usize, node: usize) -> u32 {
        self.levels[depth][node]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_config_major_u16() {
        let pool = vec![
            Configuration::from_indices(&[0, 2]),
            Configuration::from_indices(&[1, 0]),
            Configuration::from_indices(&[3, 1]),
        ];
        let enc = PoolEncoding::encode(&pool).unwrap();
        assert_eq!(enc.n_configs(), 3);
        assert_eq!(enc.n_params(), 2);
        assert!(matches!(enc.buffer(), IndexBuffer::U16(_)));
        for (c, cfg) in pool.iter().enumerate() {
            for p in 0..2 {
                assert_eq!(enc.index(c, p), cfg.value(p).index());
            }
        }
        if let IndexBuffer::U16(b) = enc.buffer() {
            assert_eq!(b, &vec![0, 2, 1, 0, 3, 1]);
        }
    }

    #[test]
    fn widens_to_u32_for_large_domains() {
        let pool = vec![Configuration::from_indices(&[70_000, 1])];
        let enc = PoolEncoding::encode(&pool).unwrap();
        assert!(matches!(enc.buffer(), IndexBuffer::U32(_)));
        assert_eq!(enc.index(0, 0), 70_000);
    }

    #[test]
    fn continuous_values_are_unencodable() {
        let pool = vec![Configuration::new(vec![ParamValue::Real(0.5)])];
        assert!(PoolEncoding::encode(&pool).is_none());
    }

    #[test]
    fn ragged_pools_are_unencodable() {
        let pool = vec![
            Configuration::from_indices(&[0, 1]),
            Configuration::from_indices(&[0]),
        ];
        assert!(PoolEncoding::encode(&pool).is_none());
    }

    #[test]
    fn empty_pool_encodes_trivially() {
        let enc = PoolEncoding::encode(&[]).unwrap();
        assert_eq!(enc.n_configs(), 0);
        assert_eq!(enc.n_params(), 0);
    }

    #[test]
    fn mask_set_get_count() {
        let mut m = PoolMask::new(130);
        assert_eq!(m.len(), 130);
        assert!(!m.get(0) && !m.get(129));
        m.set(0);
        m.set(63);
        m.set(64);
        m.set(129);
        assert!(m.get(0) && m.get(63) && m.get(64) && m.get(129));
        assert!(!m.get(1) && !m.get(128));
        assert_eq!(m.count(), 4);
    }

    #[test]
    fn mask_clear_unsets_one_position() {
        let mut m = PoolMask::new(70);
        m.set(3);
        m.set(65);
        m.clear(3);
        assert!(!m.get(3) && m.get(65));
        assert_eq!(m.count(), 1);
    }

    /// A 3-parameter pool with a hole: the product 2×2×3 minus every row
    /// with (p0, p1) = (0, 1), plus (1, 0, 1) removed.
    fn holed_pool() -> Vec<Configuration> {
        let mut pool = Vec::new();
        for a in 0..2 {
            for b in 0..2 {
                for c in 0..3 {
                    if (a, b) != (0, 1) && (a, b, c) != (1, 0, 1) {
                        pool.push(Configuration::from_indices(&[a, b, c]));
                    }
                }
            }
        }
        pool
    }

    #[test]
    fn trie_levels_follow_the_distinct_prefixes() {
        let pool = holed_pool();
        let trie = PoolTrie::new(PoolEncoding::encode(&pool).unwrap());
        assert_eq!(trie.n_params(), 3);
        assert_eq!(trie.n_configs(), 8);
        assert_eq!(trie.values(0), &[0, 1]);
        assert_eq!(trie.values(1), &[0, 0, 1]);
        assert_eq!(trie.children(0, 0), 0..1);
        assert_eq!(trie.children(0, 1), 1..3);
        assert_eq!(trie.children(1, 1), 3..5);
        assert_eq!(trie.first_position(0, 1), 3);
        assert_eq!(trie.first_position(1, 2), 5);
        assert_eq!(trie.first_position(2, 6), 6);
        assert_eq!((trie.max_fanout(0), trie.max_fanout(1)), (2, 2));
        assert_eq!(trie.max_fanout(2), 3);
        for (i, cfg) in pool.iter().enumerate() {
            assert_eq!(trie.position(cfg), Some(i));
        }
        assert_eq!(
            trie.position(&Configuration::from_indices(&[0, 1, 0])),
            None
        );
        assert_eq!(trie.position(&Configuration::from_indices(&[1, 0])), None);
        assert_eq!(
            trie.position(&Configuration::from_indices(&[1, 0, 9])),
            None
        );
    }

    #[test]
    fn trie_counts_track_marks() {
        let pool = holed_pool();
        let trie = PoolTrie::new(PoolEncoding::encode(&pool).unwrap());
        let mut seen = PoolMask::new(pool.len());
        let fresh = trie.unseen_counts(&seen);
        assert_eq!((fresh.get(0, 0), fresh.get(0, 1)), (3, 5));
        let mut counts = fresh.clone();
        trie.mark(&mut counts, 4);
        seen.set(4);
        assert_eq!(counts, trie.unseen_counts(&seen));
        assert_eq!((counts.get(0, 1), counts.get(1, 1)), (4, 1));
        trie.unmark(&mut counts, 4);
        assert_eq!(counts, fresh);
    }

    #[test]
    #[should_panic(expected = "lexicographic")]
    fn trie_rejects_unordered_pools() {
        let pool = vec![
            Configuration::from_indices(&[1, 0]),
            Configuration::from_indices(&[0, 1]),
        ];
        let _ = PoolTrie::new(PoolEncoding::encode(&pool).unwrap());
    }

    #[test]
    fn empty_pool_builds_an_empty_trie() {
        let trie = PoolTrie::new(PoolEncoding::encode(&[]).unwrap());
        assert_eq!(trie.n_configs(), 0);
        assert_eq!(trie.position(&Configuration::from_indices(&[0])), None);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn mask_bounds_are_checked() {
        let m = PoolMask::new(10);
        let _ = m.get(10);
    }
}

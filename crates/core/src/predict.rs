//! Per-memory-size prediction of disk traffic and idleness (paper §IV-B,
//! Figs. 3–4).
//!
//! Given one period's [`AccessLog`] (timestamps + stack distances), this
//! module predicts — for *every* candidate memory size at once — the number
//! of disk accesses `n_d`, the number of idle intervals `n_i`, and their
//! mean length, all without re-running the workload.
//!
//! The trick is to process candidate sizes in ascending order while
//! maintaining the predicted *miss sequence* as a doubly-linked list over
//! the log: growing the memory from one candidate to the next turns the
//! accesses whose stack distance falls inside the growth into hits, and
//! removing each such access **merges its two neighboring idle gaps into
//! one** — exactly the interval merging of paper Fig. 4, in O(1) per
//! removed access.

use jpmd_mem::{AccessLog, StackDistance};
use serde::{Deserialize, Serialize};

/// Predicted disk behavior at one candidate memory size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SizePrediction {
    /// Candidate cache capacity, pages.
    pub capacity_pages: u64,
    /// Predicted disk accesses in the period (`n_d`, pages).
    pub disk_accesses: u64,
    /// Predicted idle intervals longer than the aggregation window (`n_i`).
    pub idle_count: u64,
    /// Total predicted idle time across those intervals, s.
    pub idle_total_secs: f64,
    /// Time of the first predicted disk access, if any.
    pub first_miss_secs: Option<f64>,
    /// Time of the last predicted disk access, if any.
    pub last_miss_secs: Option<f64>,
}

impl SizePrediction {
    /// Mean idle-interval length, or `None` when there are no intervals.
    pub fn idle_mean_secs(&self) -> Option<f64> {
        if self.idle_count == 0 {
            None
        } else {
            Some(self.idle_total_secs / self.idle_count as f64)
        }
    }

    /// Adds the period-boundary idle gaps — from `period_start` to the
    /// first predicted miss and from the last miss to `period_end` — as
    /// idle intervals when they exceed `window`.
    ///
    /// Gap merging inside [`predict_sizes`] only sees *inter-access* gaps;
    /// for candidates with very few misses the boundary gaps dominate the
    /// disk's sleep opportunity, and without them the power estimate (eq. 4
    /// of the paper) concludes the disk "stays on" and systematically
    /// undervalues large memories.
    pub fn with_period_bounds(mut self, period_start: f64, period_end: f64, window: f64) -> Self {
        if let (Some(first), Some(last)) = (self.first_miss_secs, self.last_miss_secs) {
            let leading = first - period_start;
            if leading > window {
                self.idle_count += 1;
                self.idle_total_secs += leading;
            }
            let trailing = period_end - last;
            if trailing > window {
                self.idle_count += 1;
                self.idle_total_secs += trailing;
            }
        }
        self
    }
}

const NONE_IDX: u32 = u32::MAX;

/// Predicts disk accesses and idle structure at each candidate capacity.
///
/// `candidates` must be sorted ascending (duplicates are tolerated); the
/// result has one entry per candidate in the same order. `window` is the
/// aggregation window `w`: only gaps strictly longer than it count as idle
/// intervals, matching
/// [`IdleIntervals`](jpmd_stats::IdleIntervals)' semantics.
///
/// # Panics
///
/// Panics if `candidates` is not sorted ascending.
pub fn predict_sizes(log: &AccessLog, candidates: &[u64], window: f64) -> Vec<SizePrediction> {
    predict_streams(log, &removal_order(log), candidates, window, |_| 0, 1)
}

/// Predicts disk accesses and idle structure at each candidate capacity,
/// **per member disk** of an array: `route(page)` assigns every access to
/// one of `n_routes` disks, and each disk's miss stream gets its own gap
/// merging (the multi-disk extension of paper Fig. 4).
///
/// Returns `result[candidate][disk]`. Within each candidate, the sum of
/// per-disk `disk_accesses` equals the single-stream prediction's count.
///
/// # Panics
///
/// Panics if `candidates` is not sorted ascending, `n_routes == 0`, or
/// `route` returns an index `≥ n_routes`.
pub fn predict_sizes_routed<F: Fn(u64) -> usize>(
    log: &AccessLog,
    candidates: &[u64],
    window: f64,
    route: F,
    n_routes: usize,
) -> Vec<Vec<SizePrediction>> {
    predict_streams(
        log,
        &removal_order(log),
        candidates,
        window,
        route,
        n_routes,
    )
    .chunks(n_routes)
    .map(<[SizePrediction]>::to_vec)
    .collect()
}

/// One route's predicted miss stream: the ends of its linked list over
/// the log, its length, and its gaps longer than the window.
#[derive(Clone, Copy)]
struct MissStream {
    head: u32,
    tail: u32,
    misses: u64,
    idle_count: u64,
    idle_total: f64,
}

impl MissStream {
    fn add_gap(&mut self, gap: f64, window: f64) {
        if gap > window {
            self.idle_count += 1;
            self.idle_total += gap;
        }
    }

    fn remove_gap(&mut self, gap: f64, window: f64) {
        if gap > window {
            self.idle_count -= 1;
            self.idle_total -= gap;
        }
    }
}

/// A log whose largest stack distance exceeds this many times its length
/// (plus [`COUNTING_SLACK`]) is ordered by a comparison sort instead of a
/// counting pass, whose cost grows with the largest distance.
const COUNTING_SPAN: u64 = 4;
const COUNTING_SLACK: u64 = 4096;

/// The log's non-cold accesses as `(stack distance, log index)`, ascending:
/// the order in which a growing memory turns them into hits.
///
/// One counting pass over the distances, stable in the log index, yields
/// exactly the order a comparison sort of the pairs would, so every idle
/// total sums the same gaps in the same order. A log whose largest distance
/// is far beyond its length (a long profiler history behind a short
/// period) falls back to that sort.
fn removal_order(log: &AccessLog) -> Vec<(u64, u32)> {
    let entries = log.entries();
    let position = |d: StackDistance| match d {
        StackDistance::Position(p) => Some(p),
        StackDistance::Cold => None,
    };
    let Some(max) = entries.iter().filter_map(|e| position(e.distance)).max() else {
        return Vec::new();
    };
    if max > COUNTING_SPAN * entries.len() as u64 + COUNTING_SLACK {
        let mut order: Vec<(u64, u32)> = entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| position(e.distance).map(|p| (p, i as u32)))
            .collect();
        order.sort_unstable();
        return order;
    }
    // next[p]: the next free slot for distance p (first, the number of
    // accesses at smaller distances).
    let mut next = vec![0u32; max as usize + 2];
    for e in entries {
        if let Some(p) = position(e.distance) {
            next[p as usize + 1] += 1;
        }
    }
    for p in 1..next.len() {
        next[p] += next[p - 1];
    }
    let mut order = vec![(0, 0); next[max as usize + 1] as usize];
    for (i, e) in entries.iter().enumerate() {
        if let Some(p) = position(e.distance) {
            let slot = &mut next[p as usize];
            order[*slot as usize] = (p, i as u32);
            *slot += 1;
        }
    }
    order
}

/// The one reconstruction behind both predictors: every access starts as
/// a miss on its route's linked list; candidates are visited in ascending
/// order and each access whose stack distance the growth covers (in
/// `order`, see [`removal_order`]) is unlinked, merging its two
/// neighboring gaps (Fig. 4). The result is candidate-major with stride
/// `n_routes`.
fn predict_streams<F: Fn(u64) -> usize>(
    log: &AccessLog,
    order: &[(u64, u32)],
    candidates: &[u64],
    window: f64,
    route: F,
    n_routes: usize,
) -> Vec<SizePrediction> {
    assert!(
        candidates.windows(2).all(|w| w[0] <= w[1]),
        "candidates must be sorted ascending"
    );
    assert!(n_routes > 0, "need at least one route");
    let entries = log.entries();
    let n = entries.len();
    let time = |i: u32| entries[i as usize].time;

    // Capacity 0: every access is a miss, chained per route.
    let mut prev: Vec<u32> = vec![NONE_IDX; n];
    let mut next: Vec<u32> = vec![NONE_IDX; n];
    let empty = MissStream {
        head: NONE_IDX,
        tail: NONE_IDX,
        misses: 0,
        idle_count: 0,
        idle_total: 0.0,
    };
    let mut streams = vec![empty; n_routes];
    for (i, e) in entries.iter().enumerate() {
        let r = route(e.page);
        assert!(r < n_routes, "route index out of range");
        let stream = &mut streams[r];
        let l = stream.tail;
        prev[i] = l;
        if l == NONE_IDX {
            stream.head = i as u32;
        } else {
            next[l as usize] = i as u32;
            stream.add_gap(e.time - time(l), window);
        }
        stream.tail = i as u32;
        stream.misses += 1;
    }

    let mut out = Vec::with_capacity(candidates.len() * n_routes);
    let mut cursor = 0usize;
    for &cap in candidates {
        while cursor < order.len() && order[cursor].0 <= cap {
            let i = order[cursor].1;
            let stream = &mut streams[route(entries[i as usize].page)];
            let (l, r) = (prev[i as usize], next[i as usize]);
            if stream.head == i {
                stream.head = r;
            }
            if stream.tail == i {
                stream.tail = l;
            }
            if l != NONE_IDX {
                stream.remove_gap(time(i) - time(l), window);
                next[l as usize] = r;
            }
            if r != NONE_IDX {
                stream.remove_gap(time(r) - time(i), window);
                prev[r as usize] = l;
            }
            if l != NONE_IDX && r != NONE_IDX {
                stream.add_gap(time(r) - time(l), window);
            }
            stream.misses -= 1;
            cursor += 1;
        }
        out.extend(streams.iter().map(|s| SizePrediction {
            capacity_pages: cap,
            disk_accesses: s.misses,
            idle_count: s.idle_count,
            idle_total_secs: s.idle_total.max(0.0),
            first_miss_secs: (s.head != NONE_IDX).then(|| time(s.head)),
            last_miss_secs: (s.tail != NONE_IDX).then(|| time(s.tail)),
        }));
    }
    out
}

/// The Che approximation of the LRU miss rate under the *independent
/// reference model* — the analytical alternative to the stack algorithm
/// in the paper's §II-C design space (Franklin & Gupta's Markov-chain
/// fault probabilities, ref. \[32\], are the classical ancestor; the Che
/// approximation is its modern closed-form descendant).
///
/// Given per-page access probabilities `p_i` and a cache of `m` pages, the
/// *characteristic time* `T_c` solves `Σ_i (1 − e^{−p_i T_c}) = m`; the
/// miss rate is then `Σ_i p_i e^{−p_i T_c}`.
///
/// Why the paper (and this crate) use the exact stack algorithm instead:
/// IRM assumes references are independent draws, so any *temporal
/// locality* — bursts of re-use, scans, phase changes — breaks the
/// estimate, while the stack algorithm is exact for every LRU cache size
/// simultaneously. The `irm` tests below measure exactly that gap.
///
/// Returns `(miss_rate, characteristic_time)`.
///
/// # Panics
///
/// Panics if `probabilities` is empty, contains non-finite or negative
/// entries, or sums to zero.
pub fn irm_miss_rate(probabilities: &[f64], capacity_pages: u64) -> (f64, f64) {
    assert!(!probabilities.is_empty(), "need at least one page");
    assert!(
        probabilities.iter().all(|p| p.is_finite() && *p >= 0.0),
        "probabilities must be finite and non-negative"
    );
    let total: f64 = probabilities.iter().sum();
    assert!(total > 0.0, "probabilities must not all be zero");
    let probs: Vec<f64> = probabilities.iter().map(|p| p / total).collect();

    if capacity_pages as usize >= probs.len() {
        return (0.0, f64::INFINITY); // everything fits
    }
    let m = capacity_pages as f64;
    // Bisection on T_c: occupancy(T) = Σ (1 − e^{−p_i T}) is increasing.
    let occupancy = |t: f64| -> f64 { probs.iter().map(|&p| 1.0 - (-p * t).exp()).sum() };
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    while occupancy(hi) < m {
        hi *= 2.0;
        if hi > 1e18 {
            break;
        }
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if occupancy(mid) < m {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let t_c = 0.5 * (lo + hi);
    let miss = probs.iter().map(|&p| p * (-p * t_c).exp()).sum();
    (miss, t_c)
}

/// Candidate capacities worth enumerating for a given bank granularity:
/// the log's miss-count change points rounded **up** to whole banks
/// (between change points a smaller memory has the same disk I/O and less
/// static power, §IV-B), clamped to `min_banks..=max_banks`, deduplicated,
/// ascending. Expressed in banks.
///
/// One pass over the log marks the banks in a bitmap over
/// `0..=max_banks`; no sort.
///
/// # Panics
///
/// Panics if `min_banks > max_banks`.
pub fn candidate_banks(
    log: &AccessLog,
    bank_pages: u32,
    min_banks: u32,
    max_banks: u32,
) -> Vec<u32> {
    assert!(
        min_banks <= max_banks,
        "min_banks must not exceed max_banks"
    );
    let mut marked = vec![false; max_banks as usize + 1];
    marked[min_banks as usize] = true;
    marked[max_banks as usize] = true;
    for e in log.entries() {
        if let StackDistance::Position(pages) = e.distance {
            let banks = pages
                .div_ceil(u64::from(bank_pages))
                .min(u64::from(max_banks)) as u32;
            marked[banks.max(min_banks) as usize] = true;
        }
    }
    (min_banks..=max_banks)
        .filter(|&b| marked[b as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jpmd_mem::StackProfiler;
    use jpmd_stats::IdleIntervals;

    /// Builds the paper's Fig. 3/4 example log: accesses to pages
    /// (1,2,3,5,2,1,4,6,5,2) at the given timestamps.
    fn paper_log(times: &[f64; 10]) -> AccessLog {
        let pages = [1u64, 2, 3, 5, 2, 1, 4, 6, 5, 2];
        let mut profiler = StackProfiler::new();
        let mut log = AccessLog::new();
        for (&t, &p) in times.iter().zip(&pages) {
            log.record(t, p, profiler.observe(p));
        }
        log
    }

    #[test]
    fn paper_fig4_intervals() {
        // Timestamps chosen so that consecutive accesses are 1 s apart
        // except two long think-times, mirroring Fig. 4's I1 and I2.
        let times = [0.0, 1.0, 2.0, 3.0, 13.0, 14.0, 33.0, 34.0, 64.0, 65.0];
        let log = paper_log(&times);
        let w = 5.0;
        let preds = predict_sizes(&log, &[2, 4, 5], w);

        // 4-page memory (Fig. 4(a)): misses at t1..t4, t7..t10 (accesses
        // 5 and 6 hit). Idle intervals: I1 = t7 − t4 = 30, I2 = t9 − t8 = 30.
        let at4 = preds[1];
        assert_eq!(at4.disk_accesses, 8);
        assert_eq!(at4.idle_count, 2);
        assert!((at4.idle_total_secs - 60.0).abs() < 1e-9);

        // 2-page memory (Fig. 4(b)): accesses 5 and 6 become disk accesses;
        // I1 is split into t5 − t4 = 10 and t7 − t6 = 19.
        let at2 = preds[0];
        assert_eq!(at2.disk_accesses, 10);
        assert_eq!(at2.idle_count, 3);
        assert!((at2.idle_total_secs - (10.0 + 19.0 + 30.0)).abs() < 1e-9);

        // 5-page memory (Fig. 4(c)): accesses 9 and 10 also hit; I2 merges
        // into the open end (disappears — its right edge was the last
        // access), leaving only I1.
        let at5 = preds[2];
        assert_eq!(at5.disk_accesses, 6);
        assert_eq!(at5.idle_count, 1);
        assert!((at5.idle_total_secs - 30.0).abs() < 1e-9);
    }

    #[test]
    fn matches_direct_reconstruction() {
        // Cross-check the incremental algorithm against recomputing idle
        // intervals from scratch at each size.
        let times: Vec<f64> = (0..40)
            .map(|i| (i as f64 * 1.7).sin().abs() * 50.0 + i as f64 * 3.0)
            .collect();
        let pages: Vec<u64> = (0..40).map(|i| (i * 7 % 13) as u64).collect();
        let mut profiler = StackProfiler::new();
        let mut log = AccessLog::new();
        let mut sorted_times = times.clone();
        sorted_times.sort_by(f64::total_cmp);
        for (t, &p) in sorted_times.iter().zip(&pages) {
            log.record(*t, p, profiler.observe(p));
        }
        let w = 2.0;
        let candidates: Vec<u64> = (0..=14).collect();
        let preds = predict_sizes(&log, &candidates, w);
        for pred in preds {
            let misses: Vec<f64> = log.miss_times_at(pred.capacity_pages).collect();
            assert_eq!(pred.disk_accesses as usize, misses.len());
            let direct = IdleIntervals::from_timestamps(&misses, w);
            assert_eq!(
                pred.idle_count as usize,
                direct.count(),
                "cap {}",
                pred.capacity_pages
            );
            assert!(
                (pred.idle_total_secs - direct.total()).abs() < 1e-6,
                "cap {}: {} vs {}",
                pred.capacity_pages,
                pred.idle_total_secs,
                direct.total()
            );
        }
    }

    #[test]
    fn empty_log_predicts_nothing() {
        let log = AccessLog::new();
        let preds = predict_sizes(&log, &[0, 4], 0.1);
        assert_eq!(preds.len(), 2);
        assert_eq!(preds[0].disk_accesses, 0);
        assert_eq!(preds[0].idle_count, 0);
        assert_eq!(preds[1].idle_mean_secs(), None);
    }

    #[test]
    fn disk_accesses_monotone_nonincreasing() {
        let times = [0.0, 1.0, 2.0, 3.0, 13.0, 14.0, 33.0, 34.0, 64.0, 65.0];
        let log = paper_log(&times);
        let candidates: Vec<u64> = (0..10).collect();
        let preds = predict_sizes(&log, &candidates, 0.5);
        for w in preds.windows(2) {
            assert!(w[1].disk_accesses <= w[0].disk_accesses);
        }
    }

    #[test]
    fn candidate_banks_rounds_up_and_bounds() {
        let times = [0.0, 1.0, 2.0, 3.0, 13.0, 14.0, 33.0, 34.0, 64.0, 65.0];
        let log = paper_log(&times);
        // Positions present: 3, 4, 5 -> with 2-page banks: ceil -> 2, 2, 3.
        let banks = candidate_banks(&log, 2, 1, 10);
        assert_eq!(banks, vec![1, 2, 3, 10]);
        // Clamped by max.
        let banks = candidate_banks(&log, 2, 1, 2);
        assert_eq!(banks, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_candidates_panic() {
        let log = AccessLog::new();
        predict_sizes(&log, &[5, 2], 0.1);
    }

    #[test]
    fn routed_sums_match_single_stream() {
        let times = [0.0, 1.0, 2.0, 3.0, 13.0, 14.0, 33.0, 34.0, 64.0, 65.0];
        let log = paper_log(&times);
        let candidates = [0u64, 2, 4, 5, 8];
        let single = predict_sizes(&log, &candidates, 5.0);
        let routed = predict_sizes_routed(&log, &candidates, 5.0, |p| (p % 3) as usize, 3);
        for (s, per_disk) in single.iter().zip(&routed) {
            let nd_sum: u64 = per_disk.iter().map(|p| p.disk_accesses).sum();
            assert_eq!(nd_sum, s.disk_accesses);
        }
    }

    #[test]
    fn routed_matches_direct_per_route_reconstruction() {
        let times = [0.0, 1.0, 2.0, 3.0, 13.0, 14.0, 33.0, 34.0, 64.0, 65.0];
        let log = paper_log(&times);
        let w = 5.0;
        let route = |p: u64| (p % 2) as usize;
        let routed = predict_sizes_routed(&log, &[4], w, route, 2);
        #[allow(clippy::needless_range_loop)] // r is the route id, not just an index
        for r in 0..2usize {
            let misses: Vec<f64> = log
                .entries()
                .iter()
                .filter(|e| e.distance.misses_at(4) && route(e.page) == r)
                .map(|e| e.time)
                .collect();
            let direct = IdleIntervals::from_timestamps(&misses, w);
            assert_eq!(routed[0][r].disk_accesses as usize, misses.len());
            assert_eq!(routed[0][r].idle_count as usize, direct.count());
            assert!((routed[0][r].idle_total_secs - direct.total()).abs() < 1e-9);
        }
    }

    #[test]
    fn routed_single_route_equals_plain_prediction() {
        let times = [0.0, 1.0, 2.0, 3.0, 13.0, 14.0, 33.0, 34.0, 64.0, 65.0];
        let log = paper_log(&times);
        let candidates = [0u64, 2, 4, 5];
        let single = predict_sizes(&log, &candidates, 5.0);
        let routed = predict_sizes_routed(&log, &candidates, 5.0, |_| 0, 1);
        for (s, per_disk) in single.iter().zip(&routed) {
            assert_eq!(&per_disk[0], s);
        }
    }

    /// Comparison-sort reference of [`removal_order`].
    fn sorted_order(log: &AccessLog) -> Vec<(u64, u32)> {
        let mut order: Vec<(u64, u32)> = log
            .entries()
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e.distance {
                StackDistance::Position(p) => Some((p, i as u32)),
                StackDistance::Cold => None,
            })
            .collect();
        order.sort_unstable();
        order
    }

    /// Sort-and-dedup reference of [`candidate_banks`]: the log's distinct
    /// distances plus 0, rounded up to banks and clamped.
    fn candidate_banks_by_sort(log: &AccessLog, bank_pages: u32, min: u32, max: u32) -> Vec<u32> {
        let mut banks: Vec<u32> = std::iter::once(0)
            .chain(log.entries().iter().filter_map(|e| match e.distance {
                StackDistance::Position(p) => Some(p),
                StackDistance::Cold => None,
            }))
            .map(|pages| pages.div_ceil(bank_pages as u64).min(max as u64) as u32)
            .map(|b| b.clamp(min, max))
            .collect();
        banks.push(min);
        banks.push(max);
        banks.sort_unstable();
        banks.dedup();
        banks
    }

    /// The bits of every field, so equality means bit-identical.
    fn bits(p: &SizePrediction) -> (u64, u64, u64, u64, Option<u64>, Option<u64>) {
        (
            p.capacity_pages,
            p.disk_accesses,
            p.idle_count,
            p.idle_total_secs.to_bits(),
            p.first_miss_secs.map(f64::to_bits),
            p.last_miss_secs.map(f64::to_bits),
        )
    }

    /// A random log of `len` accesses: non-decreasing times with repeats,
    /// one in eight cold, distances below `dense` or, when `sparse`, one
    /// in four up to 2^40 (past the counting pass's span).
    fn random_log(seed: u64, len: usize, dense: u64, sparse: bool) -> AccessLog {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut log = AccessLog::new();
        let mut t = 0.0;
        for _ in 0..len {
            if rng.gen_range(0..3) > 0 {
                t += rng.gen_range(0.0..4.0);
            }
            let distance = match rng.gen_range(0..8) {
                0 => StackDistance::Cold,
                1 | 2 if sparse => StackDistance::Position(rng.gen_range(1..(1u64 << 40))),
                _ => StackDistance::Position(rng.gen_range(1..=dense)),
            };
            log.record(t, rng.gen_range(0..64), distance);
        }
        log
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]
        #[test]
        fn counting_order_and_bitmap_match_the_sorting_references(
            seed in 0u64..u64::MAX,
            len in 0usize..700,
            dense in 1u64..300,
            sparse in 0u8..2,
            bank_pages in 1u32..9,
        ) {
            let log = random_log(seed, len, dense, sparse == 1);
            let reference = sorted_order(&log);
            proptest::prop_assert_eq!(&removal_order(&log), &reference);

            let (min, max) = (1 + (seed % 4) as u32, 40 + (seed % 30) as u32);
            let banks = candidate_banks(&log, bank_pages, min, max);
            proptest::prop_assert_eq!(&banks, &candidate_banks_by_sort(&log, bank_pages, min, max));

            let caps: Vec<u64> = banks.iter().map(|&b| u64::from(b * bank_pages)).collect();
            let w = 1.5;
            let got: Vec<_> = predict_sizes(&log, &caps, w).iter().map(bits).collect();
            let want: Vec<_> = predict_streams(&log, &reference, &caps, w, |_| 0, 1)
                .iter()
                .map(bits)
                .collect();
            proptest::prop_assert_eq!(got, want);

            let route = |p: u64| (p % 3) as usize;
            let got: Vec<_> = predict_sizes_routed(&log, &caps, w, route, 3)
                .iter()
                .flatten()
                .map(bits)
                .collect();
            let want: Vec<_> = predict_streams(&log, &reference, &caps, w, route, 3)
                .iter()
                .map(bits)
                .collect();
            proptest::prop_assert_eq!(got, want);
        }
    }

    mod irm {
        use super::super::*;
        use jpmd_mem::StackProfiler;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// Zipf-ish page probabilities over `n` pages.
        fn zipf_probs(n: usize, s: f64) -> Vec<f64> {
            (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect()
        }

        /// Samples an IRM trace from `probs` and returns the stack
        /// profiler's exact miss count at `capacity` (cold misses excluded
        /// to compare steady-state rates).
        fn exact_warm_miss_rate(probs: &[f64], capacity: u64, samples: usize, seed: u64) -> f64 {
            let total: f64 = probs.iter().sum();
            let cdf: Vec<f64> = probs
                .iter()
                .scan(0.0, |acc, p| {
                    *acc += p / total;
                    Some(*acc)
                })
                .collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut profiler = StackProfiler::new();
            let warmup = samples / 4;
            let mut misses = 0usize;
            let mut counted = 0usize;
            for i in 0..samples {
                let u: f64 = rng.gen();
                let page = cdf.partition_point(|&c| c < u) as u64;
                let d = profiler.observe(page);
                if i >= warmup {
                    counted += 1;
                    // Steady state: treat cold as miss too (rare by then).
                    if d.misses_at(capacity) {
                        misses += 1;
                    }
                }
            }
            misses as f64 / counted as f64
        }

        #[test]
        fn everything_fits_means_no_misses() {
            let (miss, tc) = irm_miss_rate(&[0.5, 0.3, 0.2], 3);
            assert_eq!(miss, 0.0);
            assert!(tc.is_infinite());
        }

        #[test]
        fn miss_rate_decreases_with_capacity() {
            let probs = zipf_probs(200, 0.9);
            let mut prev = 1.0;
            for m in [10u64, 40, 80, 160] {
                let (miss, _) = irm_miss_rate(&probs, m);
                assert!(miss < prev, "capacity {m}: {miss} < {prev}");
                assert!(miss >= 0.0);
                prev = miss;
            }
        }

        #[test]
        fn che_matches_exact_stack_on_irm_traces() {
            // On genuinely independent references the approximation is
            // known to be excellent for Zipf popularity.
            let probs = zipf_probs(300, 0.9);
            for capacity in [30u64, 100] {
                let (che, _) = irm_miss_rate(&probs, capacity);
                let exact = exact_warm_miss_rate(&probs, capacity, 120_000, 11);
                assert!(
                    (che - exact).abs() < 0.03,
                    "capacity {capacity}: Che {che:.4} vs exact {exact:.4}"
                );
            }
        }

        #[test]
        fn temporal_locality_breaks_irm_but_not_the_stack_algorithm() {
            // A looping scan (strong temporal structure): pages cycle
            // 0..N-1. LRU with capacity < N misses on *every* access
            // (sequential flooding); IRM sees uniform probabilities and
            // predicts far fewer misses. This is why the paper's predictor
            // is the exact stack algorithm, not a reference model.
            let n = 64usize;
            let capacity = 32u64;
            let probs = vec![1.0 / n as f64; n];
            let (che, _) = irm_miss_rate(&probs, capacity);
            let mut profiler = StackProfiler::new();
            let mut misses = 0usize;
            let mut counted = 0usize;
            for i in 0..(n * 50) {
                let d = profiler.observe((i % n) as u64);
                if i >= n {
                    counted += 1;
                    if d.misses_at(capacity) {
                        misses += 1;
                    }
                }
            }
            let exact = misses as f64 / counted as f64;
            assert!((exact - 1.0).abs() < 1e-9, "LRU thrashes on a loop");
            assert!(
                che < 0.6,
                "IRM must underestimate badly here (got {che:.3})"
            );
        }

        #[test]
        #[should_panic(expected = "at least one page")]
        fn rejects_empty() {
            let _ = irm_miss_rate(&[], 1);
        }
    }

    #[test]
    #[should_panic(expected = "route index out of range")]
    fn routed_checks_route_bounds() {
        let times = [0.0, 1.0, 2.0, 3.0, 13.0, 14.0, 33.0, 34.0, 64.0, 65.0];
        let log = paper_log(&times);
        predict_sizes_routed(&log, &[4], 5.0, |_| 7, 2);
    }
}

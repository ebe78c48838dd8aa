//! The dynamic cost ledger of Section IV-A (Algorithms 4–6).
//!
//! A single-core queue of non-interactive tasks is kept sorted in
//! non-decreasing cycle order (Theorem 3). The ledger stores the tasks in
//! a [`CycleTree`] (descending cycles, so tree rank = backward position
//! `k^B`) and, per dominating position range `i` (Algorithm 1), the
//! bookkeeping tuple `(α_i, β_i, a_i, b_i, x_i, d_i)`:
//!
//! * `a_i` — the range's fixed lower backward position;
//! * `b_i` — the occupied inclusive end (`a_i − 1` when empty);
//! * `x_i = ξ(D_i)` — total cycles of tasks currently in the range;
//! * `d_i = Δ(D_i)` — their position-weighted sum, positions local to
//!   the range;
//! * `α_i`/`β_i` — handles of the first/last task in the range.
//!
//! Insertion and deletion maintain all tuples in `O(|P̂| + log N)`: one
//! tree operation plus at most one boundary shift per dominating range,
//! each O(1) thanks to the tree's linked-list threading. The total cost
//!
//! `C = Σ_i Re·E(p_i)·x_i + Rt·T(p_i)·(d_i + (a_i − 1)·x_i)`   (Eq. 32)
//!
//! is recomputed from the `|P̂|` tuples after each update, so reading it
//! is Θ(1).
//!
//! [`CostLedger::marginal_insert_cost`] (Least Marginal Cost's per-core
//! probe) is read-only. One tree descent gives the Theorem 3 rank
//! `k^B = 1 + #{tasks with ≥ L cycles}` (equal sizes keep insertion
//! order, so a new task goes behind its equals) and the ξ of the ranks
//! before it. The probe then builds the tuples Algorithm 5 would leave,
//! in locals: the target range gains the task's own term plus the ξ of
//! old ranks `[k^B, b_i]`, and each full range after it sheds its old
//! `β_i` into the next. The ξ of ranks `[1, b_i]` is `Σ_{j≤i} x_j`,
//! because the ranges tile ranks `1..N` in order. Every tuple is an
//! exact `u128`, and the probe folds them through the same per-range
//! expression, in the same order, as the maintained total. Its result
//! is therefore bit-identical to inserting, reading the cost and
//! removing, in `O(log N + |P̂|)` with no tree write. A closed-form
//! delta summed in another order could round differently and flip LMC's
//! ties between cores.
//!
//! Note: Algorithm 6 line 20 in the paper reads
//! `d_i ← d_i − (k^B−a_i+1)·∗ptr **+** range_sum(Z, [k^B+1, b_i])`; the
//! `+` is a typo — tasks behind the deleted one shift *down* one
//! position, so their ξ must be subtracted. The tests against a naive
//! recomputation pin this down.

use crate::dominating::DominatingRanges;
use dvfs_model::{CostParams, RateIdx, RateTable};
use dvfs_ostree::{CycleTree, Handle};

#[derive(Debug, Clone)]
struct RangeState {
    /// Fixed inclusive lower backward position (Algorithm 4 line 6).
    a: u64,
    /// Fixed inclusive upper backward position (`u64::MAX` for the last).
    ub: u64,
    /// Current occupied inclusive end; `a - 1` when the range is empty.
    b: u64,
    /// `ξ` of the occupied positions.
    x: u128,
    /// `Δ` of the occupied positions (local positions).
    d: u128,
    /// First task of the range (backward position `a`).
    alpha: Option<Handle>,
    /// Last task of the range (backward position `b`).
    beta: Option<Handle>,
}

impl RangeState {
    fn is_empty(&self) -> bool {
        self.b < self.a
    }
    fn len(&self) -> u64 {
        self.b + 1 - self.a
    }
}

/// Dynamic single-core scheduling ledger with `O(|P̂| + log N)`
/// insert/delete and Θ(1) total cost (Algorithms 4–6).
///
/// ```
/// use dvfs_core::CostLedger;
/// use dvfs_model::{CostParams, RateTable};
///
/// let mut ledger = CostLedger::new(&RateTable::i7_950_table2(), CostParams::batch_paper());
/// let h = ledger.insert(2_000_000_000);
/// ledger.insert(500_000_000);
/// // Total cost is maintained; reading it is Θ(1).
/// assert!(ledger.total_cost() > 0.0);
/// // The next task to dispatch is the smallest (shortest-first order).
/// let next = ledger.peek_next_dispatch().unwrap();
/// assert_eq!(ledger.cycles(next), 500_000_000);
/// ledger.remove(h);
/// assert_eq!(ledger.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CostLedger {
    tree: CycleTree,
    ranges: DominatingRanges,
    st: Vec<RangeState>,
    cost: f64,
}

impl CostLedger {
    /// Algorithm 4: initialize from a rate table and cost parameters.
    #[must_use]
    pub fn new(table: &RateTable, params: CostParams) -> Self {
        let ranges = DominatingRanges::compute(table, params);
        let st = ranges
            .entries()
            .iter()
            .map(|e| RangeState {
                a: e.lb,
                ub: e.ub.map_or(u64::MAX, |u| u - 1),
                b: e.lb - 1,
                x: 0,
                d: 0,
                alpha: None,
                beta: None,
            })
            .collect();
        CostLedger {
            tree: CycleTree::new(),
            ranges,
            st,
            cost: 0.0,
        }
    }

    /// Number of queued tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// The maintained total cost `C` (Equation 32). Θ(1).
    #[must_use]
    pub fn total_cost(&self) -> f64 {
        self.cost
    }

    /// The dominating ranges this ledger schedules against.
    #[must_use]
    pub fn ranges(&self) -> &DominatingRanges {
        &self.ranges
    }

    /// Cycle count of a queued task.
    ///
    /// # Panics
    /// Panics on a stale handle.
    #[must_use]
    pub fn cycles(&self, h: Handle) -> u64 {
        self.tree.cycles(h)
    }

    /// Current backward position of a queued task.
    ///
    /// # Panics
    /// Panics on a stale handle.
    #[must_use]
    pub fn backward_position(&self, h: Handle) -> u64 {
        self.tree.rank(h) as u64
    }

    /// The rate the task at backward position `k` should run at.
    #[must_use]
    pub fn rate_at(&self, k: u64) -> RateIdx {
        self.ranges.rate_for(k)
    }

    /// The smallest-cycle task (largest backward position): the next task
    /// to dispatch under shortest-first execution.
    #[must_use]
    pub fn peek_next_dispatch(&self) -> Option<Handle> {
        self.tree.last()
    }

    /// Range `i`'s Equation 32 term from its tuple. The maintained total
    /// and the read-only probe both fold this one expression, in range
    /// order, which is what makes the probe bit-exact.
    fn range_cost(&self, i: usize, x: u128, d: u128) -> f64 {
        let (re_e, rt_t) = self.ranges.coeffs(i);
        let gamma = d + (self.st[i].a as u128 - 1) * x;
        re_e * x as f64 + rt_t * gamma as f64
    }

    /// The largest-cycle tasks in rank order: backward position 1 and
    /// the run of equal sizes behind it. `O(log N)` plus one step per
    /// tie.
    pub(crate) fn longest(&self) -> impl Iterator<Item = (Handle, u64)> + '_ {
        let mut run = self.tree.iter().peekable();
        let max = run.peek().map(|&(_, c)| c);
        run.take_while(move |&(_, c)| Some(c) == max)
    }

    fn recompute_cost(&mut self) {
        let mut c = 0.0;
        for (i, s) in self.st.iter().enumerate() {
            if !s.is_empty() {
                c += self.range_cost(i, s.x, s.d);
            }
        }
        self.cost = c;
    }

    /// Algorithm 5: insert a task. `O(|P̂| + log N)`.
    pub fn insert(&mut self, cycles: u64) -> Handle {
        let h = self.tree.insert(cycles);
        let kb = self.tree.rank(h) as u64;
        let mut i = self.ranges.range_index_for(kb);
        {
            let s = &mut self.st[i];
            if kb == s.a {
                s.alpha = Some(h);
            }
            if kb > s.b {
                s.beta = Some(h);
            }
            s.b += 1;
            s.x += cycles as u128;
        }
        // d update needs a tree query; split borrows.
        let shift = self.tree.xi_range(kb as usize + 1, self.st[i].b as usize);
        self.st[i].d += (kb - self.st[i].a + 1) as u128 * cycles as u128 + shift;

        // Cascade overflow across subsequent ranges (one element each).
        while self.st[i].b > self.st[i].ub {
            let ptr = self.st[i].beta.expect("overflowing range has a tail");
            let lt = self.tree.cycles(ptr) as u128;
            {
                let s = &mut self.st[i];
                s.d -= s.len() as u128 * lt;
                s.x -= lt;
                s.b -= 1;
            }
            if self.st[i].is_empty() {
                self.st[i].alpha = None;
                self.st[i].beta = None;
            } else {
                self.st[i].beta = self.tree.prev(ptr);
            }
            i += 1;
            let s = &mut self.st[i];
            s.alpha = Some(ptr);
            if s.is_empty() {
                s.beta = Some(ptr);
            }
            s.b += 1;
            s.x += lt;
            s.d += s.x;
        }
        self.recompute_cost();
        h
    }

    /// Algorithm 6: delete a queued task. `O(|P̂| + log N)`.
    ///
    /// # Panics
    /// Panics on a stale handle.
    pub fn remove(&mut self, h: Handle) -> u64 {
        let kb = self.tree.rank(h) as u64;
        let cycles = self.tree.cycles(h);
        // Last non-empty range.
        let mut i = self
            .st
            .iter()
            .rposition(|s| !s.is_empty())
            .expect("remove from a non-empty ledger");
        // Shift the head of every range after kb down into the
        // predecessor range (ranks after kb decrease by one).
        while self.st[i].a > kb {
            let tptr = self.st[i].alpha.expect("non-empty range has a head");
            let lt = self.tree.cycles(tptr) as u128;
            {
                let s = &mut self.st[i];
                s.d -= s.x;
                s.x -= lt;
                s.b -= 1;
            }
            if self.st[i].is_empty() {
                self.st[i].alpha = None;
                self.st[i].beta = None;
            } else {
                self.st[i].alpha = self.tree.next(tptr);
            }
            i -= 1;
            let s = &mut self.st[i];
            if s.is_empty() {
                s.alpha = Some(tptr);
            }
            s.beta = Some(tptr);
            s.b += 1;
            s.x += lt;
            s.d += s.len() as u128 * lt;
        }
        debug_assert_eq!(
            i,
            self.ranges.range_index_for(kb),
            "cascade must stop at the target range"
        );
        // Remove the task from its own range (paper line 20 with the
        // sign typo fixed: trailing tasks shift down, subtract their ξ).
        let shift = self.tree.xi_range(kb as usize + 1, self.st[i].b as usize);
        {
            let s = &mut self.st[i];
            s.d -= (kb - s.a + 1) as u128 * cycles as u128 + shift;
            s.x -= cycles as u128;
            s.b -= 1;
        }
        if self.st[i].is_empty() {
            self.st[i].alpha = None;
            self.st[i].beta = None;
        } else {
            if self.st[i].alpha == Some(h) {
                self.st[i].alpha = self.tree.next(h);
            }
            if self.st[i].beta == Some(h) {
                self.st[i].beta = self.tree.prev(h);
            }
        }
        self.tree.remove(h);
        self.recompute_cost();
        cycles
    }

    /// The marginal cost of inserting a task with `cycles` cycles:
    /// `C_after − C_before` (used by Least Marginal Cost when choosing a
    /// core for a non-interactive task). Read-only: builds the tuples
    /// [`insert`](Self::insert) would leave and folds them as
    /// `recompute_cost` does, so the result is bit-identical to an
    /// insert followed by a remove. `O(log N + |P̂|)`.
    #[must_use]
    pub fn marginal_insert_cost(&self, cycles: u64) -> f64 {
        let (ahead, xi_ahead) = self.tree.count_xi_at_least(cycles);
        let kb = ahead as u64 + 1;
        let target = self.ranges.range_index_for(kb);
        let l = cycles as u128;
        let mut c = 0.0;
        // ξ of old ranks [1, b_i]: the ranges tile ranks 1..N in order.
        let mut prefix = 0u128;
        // Cycles of the task the previous range pushed into this one.
        let mut carry: Option<u128> = None;
        for (i, s) in self.st.iter().enumerate() {
            prefix += s.x;
            let (mut b, mut x, mut d) = (s.b, s.x, s.d);
            if i == target {
                // The new task at kb; old ranks [kb, b_i] shift down one.
                b += 1;
                x += l;
                d += (kb - s.a + 1) as u128 * l + (prefix - xi_ahead);
            } else if let Some(lt) = carry.take() {
                b += 1;
                x += lt;
                d += x;
            }
            if b > s.ub {
                // A full range sheds its old tail into the next one.
                let lt = self
                    .tree
                    .cycles(s.beta.expect("overflowing range has a tail"))
                    as u128;
                d -= (b + 1 - s.a) as u128 * lt;
                x -= lt;
                b -= 1;
                carry = Some(lt);
            }
            if b >= s.a {
                c += self.range_cost(i, x, d);
            }
        }
        c - self.cost
    }

    /// Recompute the total via per-range tree queries (Equation 32
    /// directly): `O(|P̂| log N)`. Used for verification and as the
    /// ablation baseline against the maintained Θ(1) value.
    #[must_use]
    pub fn recompute_via_queries(&self) -> f64 {
        let n = self.tree.len() as u64;
        let mut c = 0.0;
        for (i, e) in self.ranges.entries().iter().enumerate() {
            let Some(end) = e.clamped_end(n) else {
                continue;
            };
            let (re_e, rt_t) = self.ranges.coeffs(i);
            let xi = self.tree.xi_range(e.lb as usize, end as usize);
            let gamma = self.tree.gamma_range(e.lb as usize, end as usize);
            c += re_e * xi as f64 + rt_t * gamma as f64;
        }
        c
    }

    /// Fully naive total cost: walk all tasks, `Σ C^B(k)·L_k`. `O(N)`.
    #[must_use]
    pub fn naive_cost(&self) -> f64 {
        self.tree
            .iter()
            .enumerate()
            .map(|(idx, (_, cycles))| self.ranges.cost_at(idx as u64 + 1) * cycles as f64)
            .sum()
    }

    /// Verify the per-range bookkeeping against direct tree queries.
    /// Intended for tests.
    ///
    /// # Panics
    /// Panics on the first inconsistent tuple.
    pub fn assert_state(&self) {
        let n = self.tree.len() as u64;
        let mut covered = 0u64;
        for (i, s) in self.st.iter().enumerate() {
            let e = &self.ranges.entries()[i];
            assert_eq!(s.a, e.lb);
            let expect_b = match e.clamped_end(n) {
                Some(end) => end,
                None => s.a - 1,
            };
            assert_eq!(s.b, expect_b, "range {i} occupancy end");
            let xi = self.tree.xi_range(s.a as usize, s.b as usize);
            let delta = self.tree.delta_range(s.a as usize, s.b as usize);
            assert_eq!(s.x, xi, "range {i} xi");
            assert_eq!(s.d, delta, "range {i} delta");
            if s.is_empty() {
                assert!(s.alpha.is_none() && s.beta.is_none(), "range {i} pointers");
            } else {
                let alpha = s.alpha.expect("non-empty range has alpha");
                let beta = s.beta.expect("non-empty range has beta");
                assert_eq!(self.tree.rank(alpha) as u64, s.a, "range {i} alpha rank");
                assert_eq!(self.tree.rank(beta) as u64, s.b, "range {i} beta rank");
                covered += s.len();
            }
        }
        assert_eq!(covered, n, "ranges must cover every queued task");
        let naive = self.naive_cost();
        assert!(
            (self.cost - naive).abs() <= naive.abs() * 1e-9 + 1e-12,
            "maintained cost {} diverged from naive {}",
            self.cost,
            naive
        );
        let via_q = self.recompute_via_queries();
        assert!(
            (self.cost - via_q).abs() <= via_q.abs() * 1e-9 + 1e-12,
            "maintained cost {} diverged from query-based {}",
            self.cost,
            via_q
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn ledger() -> CostLedger {
        CostLedger::new(&RateTable::i7_950_table2(), CostParams::batch_paper())
    }

    /// The probe's oracle: Algorithm 5, the cost read, then Algorithm 6,
    /// which must restore the total bit for bit.
    fn insert_remove_oracle(l: &mut CostLedger, cycles: u64) -> f64 {
        let before = l.total_cost();
        let h = l.insert(cycles);
        let after = l.total_cost();
        l.remove(h);
        assert_eq!(
            l.total_cost().to_bits(),
            before.to_bits(),
            "remove restores"
        );
        after - before
    }

    /// A rate table and cost preset for probe-oracle runs: Table II or a
    /// synthetic ladder, under the batch or online parameters.
    fn oracle_ledger(table: u8, levels: usize, online: bool) -> CostLedger {
        let table = match table {
            0 => RateTable::i7_950_table2(),
            _ => RateTable::synthetic_quadratic(levels, 0.8, 3.2),
        };
        let params = if online {
            CostParams::online_paper()
        } else {
            CostParams::batch_paper()
        };
        CostLedger::new(&table, params)
    }

    #[test]
    fn empty_ledger_costs_zero() {
        let l = ledger();
        assert_eq!(l.total_cost(), 0.0);
        assert_eq!(l.len(), 0);
        assert!(l.is_empty());
        assert!(l.peek_next_dispatch().is_none());
        l.assert_state();
    }

    #[test]
    fn single_insert_and_remove() {
        let mut l = ledger();
        let h = l.insert(1_000_000_000);
        assert_eq!(l.len(), 1);
        assert_eq!(l.backward_position(h), 1);
        l.assert_state();
        let expected = l.ranges().cost_at(1) * 1e9;
        assert!((l.total_cost() - expected).abs() < 1e-9);
        assert_eq!(l.remove(h), 1_000_000_000);
        assert!(l.is_empty());
        assert_eq!(l.total_cost(), 0.0);
        l.assert_state();
    }

    #[test]
    fn inserts_spanning_multiple_ranges() {
        let mut l = ledger();
        // Enough tasks to spill into several dominating ranges.
        let mut handles = Vec::new();
        for i in 1..=200u64 {
            handles.push(l.insert(i * 13 + 1));
            if i % 20 == 0 {
                l.assert_state();
            }
        }
        l.assert_state();
        // Remove in mixed order.
        for (i, h) in handles.into_iter().enumerate() {
            l.remove(h);
            if i % 31 == 0 {
                l.assert_state();
            }
        }
        assert!(l.is_empty());
        l.assert_state();
    }

    #[test]
    fn peek_next_dispatch_is_smallest_task() {
        let mut l = ledger();
        l.insert(500);
        let small = l.insert(10);
        l.insert(300);
        let next = l.peek_next_dispatch().unwrap();
        assert_eq!(next, small);
        assert_eq!(l.cycles(next), 10);
        assert_eq!(l.backward_position(next) as usize, l.len());
    }

    #[test]
    fn marginal_cost_is_exact_and_non_destructive() {
        let mut l = ledger();
        for c in [100u64, 5000, 70, 900, 42] {
            l.insert(c);
        }
        let before = l.total_cost();
        let mc = l.marginal_insert_cost(333);
        assert!((l.total_cost() - before).abs() < 1e-9, "ledger restored");
        assert_eq!(l.len(), 5);
        // Cross-check by actually inserting.
        let h = l.insert(333);
        assert!((l.total_cost() - (before + mc)).abs() < before * 1e-9 + 1e-9);
        l.remove(h);
        l.assert_state();
    }

    #[test]
    fn marginal_cost_grows_with_queue_length() {
        // The same task inserted into a longer queue delays more work →
        // at least as expensive.
        let mut short = ledger();
        let mut long = ledger();
        for c in [1000u64, 2000] {
            short.insert(c);
        }
        for c in [1000u64, 2000, 3000, 4000, 5000, 6000] {
            long.insert(c);
        }
        let probe = 1500;
        assert!(long.marginal_insert_cost(probe) > short.marginal_insert_cost(probe));
    }

    #[test]
    fn duplicate_cycle_counts_are_handled() {
        let mut l = ledger();
        let hs: Vec<_> = (0..50).map(|_| l.insert(777)).collect();
        l.assert_state();
        for h in hs {
            l.remove(h);
        }
        assert!(l.is_empty());
    }

    #[test]
    fn boundary_position_inserts_and_deletes() {
        // Table II ranges under batch params: [1,2) [2,3) [3,5) [5,10)
        // [10,inf). Drive insert/delete sequences that land exactly on
        // every boundary and verify state after each step.
        let mut l = ledger();
        let mut handles = Vec::new();
        // Fill positions 1..=12 (crosses every boundary).
        for i in 0..12u64 {
            handles.push(l.insert(1_000_000 + i)); // ascending → each lands at rank 1
            l.assert_state();
        }
        // Remove exactly the boundary ranks 1, 2, 3, 5, 10 (refreshing
        // handles as ranks shift).
        for target_rank in [1usize, 2, 3, 5] {
            let h = l // find current handle at the rank via peek + walk
                .ranges()
                .entries()
                .iter()
                .find_map(|e| (e.lb as usize <= target_rank).then_some(()))
                .map(|()| {
                    // select by rank through the public API: walk with
                    // backward_position.
                    let mut found = None;
                    for &h in &handles {
                        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            l.backward_position(h)
                        }))
                        .map(|r| r as usize == target_rank)
                        .unwrap_or(false)
                        {
                            found = Some(h);
                            break;
                        }
                    }
                    found.expect("rank occupied")
                })
                .expect("ranges exist");
            l.remove(h);
            l.assert_state();
        }
    }

    #[test]
    fn alternating_head_tail_churn() {
        // Insert a strictly increasing sequence (always rank 1) and a
        // strictly decreasing one (always last), interleaved; then drain
        // from both ends.
        let mut l = ledger();
        let mut heads = Vec::new();
        let mut tails = Vec::new();
        for i in 1..=30u64 {
            heads.push(l.insert(1_000_000_000 + i));
            tails.push(l.insert(1_000 - i));
            l.assert_state();
        }
        while let Some(h) = heads.pop() {
            l.remove(h);
            l.remove(tails.pop().expect("same length"));
            l.assert_state();
        }
        assert!(l.is_empty());
    }

    #[test]
    fn randomized_incremental_matches_naive() {
        let mut rng = ChaCha8Rng::seed_from_u64(2024);
        let mut l = ledger();
        let mut live: Vec<Handle> = Vec::new();
        for step in 0..2000 {
            if live.is_empty() || rng.gen_bool(0.58) {
                live.push(l.insert(rng.gen_range(1..100_000_000)));
            } else {
                let i = rng.gen_range(0..live.len());
                let h = live.swap_remove(i);
                l.remove(h);
            }
            let naive = l.naive_cost();
            assert!(
                (l.total_cost() - naive).abs() <= naive.abs() * 1e-9 + 1e-12,
                "diverged at step {step}: {} vs {naive}",
                l.total_cost()
            );
            if step % 200 == 0 {
                l.assert_state();
            }
        }
        l.assert_state();
    }

    #[test]
    fn single_rate_table_degenerates_gracefully() {
        let table = RateTable::synthetic_quadratic(1, 1.0, 1.0);
        let mut l = CostLedger::new(&table, CostParams::batch_paper());
        let hs: Vec<_> = (1..=20).map(|i| l.insert(i * 11)).collect();
        l.assert_state();
        for h in hs {
            l.remove(h);
        }
        l.assert_state();
    }

    #[test]
    fn two_rate_theorem1_gadget_ledger() {
        let mut l = CostLedger::new(
            &RateTable::theorem1_gadget(),
            CostParams::new(1.0, 1.0).unwrap(),
        );
        for i in 1..=40 {
            l.insert(i);
        }
        l.assert_state();
    }

    /// Random ledgers under churn with a probe at every step, checked
    /// bit for bit against insert-then-remove. Run in CI with
    /// `cargo test --release -p dvfs-core --lib -- --ignored deep_probe`.
    #[test]
    #[ignore = "deep oracle sweep (~10k ledgers); run in release"]
    fn deep_probe_oracle_sweep() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_0014);
        let mut probes = 0u64;
        for case in 0..10_000u32 {
            let mut l = oracle_ledger(rng.gen_range(0..2), rng.gen_range(2..10), rng.gen());
            // Log-uniform depth up to 5k; every fourth ledger draws its
            // sizes from a pool of 8 values, so ties are the norm.
            let depth = rng.gen_range(0.0f64..5000f64.ln()).exp() as usize;
            let pool = case % 4 == 0;
            let draw = |rng: &mut ChaCha8Rng| {
                if pool {
                    rng.gen_range(1..=8u64) * 125_000_000
                } else {
                    rng.gen_range(1..10_000_000_000u64)
                }
            };
            let mut live: Vec<Handle> = Vec::new();
            while live.len() < depth {
                let c = draw(&mut rng);
                let want = insert_remove_oracle(&mut l, c);
                assert_eq!(
                    l.marginal_insert_cost(c).to_bits(),
                    want.to_bits(),
                    "case {case}: probe {c} at depth {}",
                    l.len()
                );
                probes += 1;
                if live.is_empty() || rng.gen_bool(0.75) {
                    live.push(l.insert(c));
                } else {
                    l.remove(live.swap_remove(rng.gen_range(0..live.len())));
                }
            }
        }
        assert!(probes > 1_000_000, "sweep ran {probes} probes");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_probe_is_bit_identical_to_insert(
            ops in prop::collection::vec((0u8..4, 1u64..10_000_000_000), 1..300),
            table in 0u8..2,
            levels in 2usize..10,
            online in 0u8..2,
            pool in 0u8..2,
        ) {
            let mut l = oracle_ledger(table, levels, online == 1);
            let mut live: Vec<Handle> = Vec::new();
            for (op, val) in ops {
                // With `pool`, sizes come from 6 values: heavy duplicates.
                let c = if pool == 1 { val % 6 * 1_000_000 + 1 } else { val };
                prop_assert_eq!(
                    l.marginal_insert_cost(c).to_bits(),
                    insert_remove_oracle(&mut l.clone(), c).to_bits()
                );
                if op > 0 || live.is_empty() {
                    live.push(l.insert(c));
                } else {
                    l.remove(live.swap_remove(val as usize % live.len()));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_ledger_matches_naive(
            ops in prop::collection::vec((0u8..2, 1u64..10_000_000), 1..150),
            levels in 2usize..8,
            re in 0.05f64..2.0,
            rt in 0.05f64..2.0,
        ) {
            let table = RateTable::synthetic_quadratic(levels, 0.5, 3.3);
            let params = CostParams::new(re, rt).unwrap();
            let mut l = CostLedger::new(&table, params);
            let mut live: Vec<Handle> = Vec::new();
            for (op, val) in ops {
                if op == 0 || live.is_empty() {
                    live.push(l.insert(val));
                } else {
                    let h = live.swap_remove(val as usize % live.len());
                    l.remove(h);
                }
                let naive = l.naive_cost();
                prop_assert!((l.total_cost() - naive).abs() <= naive.abs() * 1e-9 + 1e-12);
            }
            l.assert_state();
        }
    }
}

//! Adversarial analysis of replicated executions: by when is at least one
//! replica of a process guaranteed to have completed, no matter how an
//! adversary distributes the remaining fault budget?
//!
//! Active replication (§3.2) runs all replicas regardless of faults. A
//! replica with `f` faults completes at its `f`-recovery completion time; a
//! replica whose whole recovery chain is exhausted dies. The worst-case
//! delivery time of the process output is
//!
//! `max over fault allocations (Σfj ≤ budget) of min over alive replicas of
//! completion(j, fj)`
//!
//! which the conditional scheduler uses as the completion time of a
//! `ReplicaJoin` node, and the estimator uses for replication slack.

use ftes_model::Time;
// ftes-lint: allow(determinism) reason="canonical-key subtree memo; probed per key, never iterated into results"
use std::collections::HashMap;

/// Completion ladder of one replica: `ladder[f]` is the completion time
/// after absorbing `f` faults (`f < ladder.len()`), and `killable` tells
/// whether hitting every attempt (cost `ladder.len()` faults) kills the
/// replica for the rest of the cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaLadder {
    /// Completion time after `f` faults, `f = 0..len`.
    pub ladder: Vec<Time>,
    /// `true` if `ladder.len()` faults kill the replica (its final attempt
    /// is still at risk); `false` if the chain is budget-truncated and the
    /// final attempt can no longer fail.
    pub killable: bool,
}

/// Worst-case delivery time of a replicated output under `budget` faults.
///
/// Returns `None` if the adversary can silence **all** replicas within the
/// budget — a policy-assignment bug for validated inputs; callers surface it
/// as an error.
///
/// The adversary silences the join when it can afford to kill every replica.
/// Otherwise the answer is the largest ladder value `T` it can afford to
/// force: every replica reaches `T`, either killed (cost: its ladder length,
/// if killable) or delayed (cost: the fewest faults whose completion is
/// `≥ T`), and the costs sum to at most `budget`. Some replica then
/// survives, and the earliest survivor completes at `T` or later; no
/// allocation does better, since every allocation that delivers at `T'`
/// makes each replica reach `T'`. Forcing a larger `T` never costs less, so
/// the candidates are tried from the largest down. That is polynomial in the
/// replica and ladder sizes, and exact for non-monotone ladders too (a
/// completion at `Time::MAX` reads as silence, not as a delivery).
///
/// # Examples
///
/// ```
/// use ftes_sched::{worst_case_delivery, ReplicaLadder};
/// use ftes_model::Time;
///
/// // Two plain replicas finishing at 70 and 90; one fault to spend.
/// let ladders = vec![
///     ReplicaLadder { ladder: vec![Time::new(70)], killable: true },
///     ReplicaLadder { ladder: vec![Time::new(90)], killable: true },
/// ];
/// // The adversary kills the fast one; the slow one delivers.
/// assert_eq!(worst_case_delivery(&ladders, 1), Some(Time::new(90)));
/// // With no faults the fast replica delivers.
/// assert_eq!(worst_case_delivery(&ladders, 0), Some(Time::new(70)));
/// // Two faults kill both.
/// assert_eq!(worst_case_delivery(&ladders, 2), None);
/// ```
pub fn worst_case_delivery(ladders: &[ReplicaLadder], budget: u32) -> Option<Time> {
    let kill_all = ladders.iter().map(|l| l.ladder.len() as u64).sum::<u64>();
    if ladders.iter().all(|l| l.killable) && kill_all <= u64::from(budget) {
        return None;
    }
    let mut below: Option<Time> = None;
    loop {
        let target = ladders
            .iter()
            .flat_map(|l| l.ladder.iter().copied())
            .filter(|&end| below.is_none_or(|b| end < b))
            .max()?;
        if affordable(ladders, budget, target) {
            return (target < Time::MAX).then_some(target);
        }
        below = Some(target);
    }
}

/// Whether `budget` faults can make every replica reach `target`: each one
/// killed (if killable) or delayed to a completion `≥ target`, whichever
/// costs fewer faults.
fn affordable(ladders: &[ReplicaLadder], budget: u32, target: Time) -> bool {
    let mut spent = 0u64;
    for l in ladders {
        let delay = l.ladder.iter().position(|&end| end >= target);
        let kill = l.killable.then_some(l.ladder.len());
        let Some(cost) = delay.into_iter().chain(kill).min() else { return false };
        spent += cost as u64;
        if spent > u64::from(budget) {
            return false;
        }
    }
    true
}

/// Canonical, collision-free key of one adversarial-delivery subproblem:
/// the fault budget plus, per replica ladder, its length, every completion
/// time and the killable flag. Two `(copies, policies)` states whose
/// scenario subtrees reduce to the same key have provably identical
/// worst-case deliveries (the delivery is a pure function of exactly these
/// inputs), so the key doubles as the memo's invalidation: any change to a
/// touched process's policy, placement or copy completion times changes
/// some ladder entry and thereby the key.
pub fn subtree_key(ladders: &[ReplicaLadder], budget: u32) -> Vec<u8> {
    let mut out =
        Vec::with_capacity(8 + ladders.iter().map(|l| 8 * l.ladder.len() + 5).sum::<usize>());
    out.extend_from_slice(&budget.to_le_bytes());
    for l in ladders {
        out.extend_from_slice(&(l.ladder.len() as u32).to_le_bytes());
        for &end in &l.ladder {
            out.extend_from_slice(&end.units().to_le_bytes());
        }
        out.push(u8::from(l.killable));
    }
    out
}

/// Memo of [`worst_case_delivery`] results keyed by [`subtree_key`] — the
/// fault-scenario subtree cache behind incremental certification. Across
/// the certifier's delta chains most joins are untouched and resolve to the
/// same key, which the memo answers in one hash probe. The delivery itself
/// is polynomial (at most quadratic in the join's total ladder length), so
/// whether the memo pays for itself end to end is an open ablation
/// question.
#[derive(Debug, Clone, Default)]
pub struct JoinMemo {
    entries: HashMap<Vec<u8>, Option<Time>>,
    hits: u64,
    misses: u64,
}

impl JoinMemo {
    /// An empty memo.
    pub fn new() -> Self {
        JoinMemo::default()
    }

    /// Deliveries answered from the memo.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Deliveries computed by [`worst_case_delivery`].
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Memoized [`worst_case_delivery`] — bit-identical to the plain
    /// function (the delivery is pure; the key is collision-free).
    pub fn delivery(&mut self, ladders: &[ReplicaLadder], budget: u32) -> Option<Time> {
        let key = subtree_key(ladders, budget);
        if let Some(&cached) = self.entries.get(&key) {
            self.hits += 1;
            ftes_obs::counter(ftes_obs::names::CERTIFY_SUBTREE_HIT, 1);
            return cached;
        }
        let computed = worst_case_delivery(ladders, budget);
        self.misses += 1;
        self.entries.insert(key, computed);
        computed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: i64) -> Time {
        Time::new(v)
    }

    fn plain(completion: i64) -> ReplicaLadder {
        ReplicaLadder { ladder: vec![t(completion)], killable: true }
    }

    /// Outcome of one adversary allocation over all replicas.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Outcome {
        /// Some replica survives; payload is the earliest surviving completion.
        Delivered(Time),
        /// Every replica is dead.
        Silent,
    }

    /// The oracle: every kill-or-delay choice for every replica, exponential
    /// in the replica count.
    fn recursion(ladders: &[ReplicaLadder], budget: u32) -> Option<Time> {
        match explore(ladders, budget, Time::MAX) {
            Some(Outcome::Delivered(t)) => Some(t),
            Some(Outcome::Silent) | None => None,
        }
    }

    /// The adversary-optimal outcome for replicas `ladders`, given `budget`
    /// faults and `current_min` — the minimum completion among replicas
    /// already decided alive (`Time::MAX` when none yet). `Silent`
    /// dominates any `Delivered`; among `Delivered`, larger is worse.
    fn explore(ladders: &[ReplicaLadder], budget: u32, current_min: Time) -> Option<Outcome> {
        let Some((first, rest)) = ladders.split_first() else {
            return Some(if current_min == Time::MAX {
                Outcome::Silent
            } else {
                Outcome::Delivered(current_min)
            });
        };
        let mut worst: Option<Outcome> = None;
        let mut consider = |o: Outcome| {
            worst = Some(match (worst, o) {
                (None, o) => o,
                (Some(Outcome::Silent), _) | (_, Outcome::Silent) => Outcome::Silent,
                (Some(Outcome::Delivered(a)), Outcome::Delivered(b)) => {
                    Outcome::Delivered(a.max(b))
                }
            });
        };
        // Delay this replica with any affordable f faults; it stays alive.
        for f in 0..first.ladder.len() as u32 {
            if f > budget {
                break;
            }
            if let Some(o) = explore(rest, budget - f, current_min.min(first.ladder[f as usize])) {
                consider(o);
            }
        }
        // Or kill it (cost = the whole chain), if affordable.
        let kill_cost = first.ladder.len() as u32;
        if first.killable && kill_cost <= budget {
            if let Some(o) = explore(rest, budget - kill_cost, current_min) {
                consider(o);
            }
        }
        worst
    }

    /// SplitMix64: a seeded stream for the random ladders.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn closed_form_equals_the_recursion() {
        // Random sets of up to four replicas with ladders of one to three
        // completions drawn from a narrow range, so ladders are often
        // non-monotone and completions often tie; killable or not.
        let mut state = 19;
        for _ in 0..4000 {
            let replicas = (next(&mut state) % 5) as usize;
            let ladders: Vec<ReplicaLadder> = (0..replicas)
                .map(|_| {
                    let len = 1 + (next(&mut state) % 3) as usize;
                    let ladder = (0..len).map(|_| t((next(&mut state) % 8) as i64)).collect();
                    ReplicaLadder { ladder, killable: next(&mut state) & 1 == 0 }
                })
                .collect();
            for budget in 0..8 {
                assert_eq!(
                    worst_case_delivery(&ladders, budget),
                    recursion(&ladders, budget),
                    "{ladders:?} at budget {budget}"
                );
            }
        }
    }

    #[test]
    fn sixty_four_plain_replicas_at_budget_63() {
        // 2^64 kill-or-delay leaves: out of the recursion's reach.
        let ladders: Vec<ReplicaLadder> = (0..64).map(|i| plain(10 + (i * 37) % 64)).collect();
        assert_eq!(worst_case_delivery(&ladders, 63), Some(t(73)), "the slowest delivers");
        assert_eq!(worst_case_delivery(&ladders, 64), None, "the budget kills all");
        assert_eq!(worst_case_delivery(&ladders, 0), Some(t(10)));
    }

    #[test]
    fn single_checkpointed_copy_walks_its_ladder() {
        // One copy with 2 recoveries: ladder of 3 completions, not killable
        // beyond (budget-truncated regular final attempt).
        let l = vec![ReplicaLadder { ladder: vec![t(75), t(155), t(225)], killable: false }];
        assert_eq!(worst_case_delivery(&l, 0), Some(t(75)));
        assert_eq!(worst_case_delivery(&l, 1), Some(t(155)));
        assert_eq!(worst_case_delivery(&l, 2), Some(t(225)));
        // Extra budget cannot hurt a non-killable exhausted chain.
        assert_eq!(worst_case_delivery(&l, 5), Some(t(225)));
    }

    #[test]
    fn k_plus_one_plain_replicas_deliver_kth_smallest() {
        let l = vec![plain(70), plain(80), plain(90)];
        // Budget 2: kill the two fastest; the slowest delivers.
        assert_eq!(worst_case_delivery(&l, 2), Some(t(90)));
        assert_eq!(worst_case_delivery(&l, 1), Some(t(80)));
        assert_eq!(worst_case_delivery(&l, 0), Some(t(70)));
        assert_eq!(worst_case_delivery(&l, 3), None, "budget kills all");
    }

    #[test]
    fn mixed_kill_and_delay() {
        // Replica A: plain, fast. Replica B: one recovery, slow ladder.
        let l = vec![plain(50), ReplicaLadder { ladder: vec![t(60), t(120)], killable: true }];
        // Budget 2: kill A (1 fault), delay B once (1 fault) -> 120.
        assert_eq!(worst_case_delivery(&l, 2), Some(t(120)));
        // Budget 1: either kill A (B at 60) or delay B (A at 50): max = 60.
        assert_eq!(worst_case_delivery(&l, 1), Some(t(60)));
        // Budget 3: kill A and B (1 + 2) -> None.
        assert_eq!(worst_case_delivery(&l, 3), None);
    }

    #[test]
    fn empty_replica_set_never_delivers() {
        assert_eq!(worst_case_delivery(&[], 0), None);
    }

    #[test]
    fn order_of_replicas_is_irrelevant() {
        let a = vec![plain(50), ReplicaLadder { ladder: vec![t(60), t(120)], killable: true }];
        let b = vec![ReplicaLadder { ladder: vec![t(60), t(120)], killable: true }, plain(50)];
        for budget in 0..4 {
            assert_eq!(worst_case_delivery(&a, budget), worst_case_delivery(&b, budget));
        }
    }

    #[test]
    fn non_monotone_ladder_handled() {
        // Degenerate input: a "recovery" that finishes earlier (can happen
        // with zero-duration test fixtures); the adversary must still pick
        // the max.
        let l = vec![ReplicaLadder { ladder: vec![t(100), t(40)], killable: false }];
        assert_eq!(worst_case_delivery(&l, 1), Some(t(100)));
    }

    #[test]
    fn subtree_keys_are_collision_free_on_adversarial_shapes() {
        // Same multiset of completion times, different ladder grouping:
        // [[1,2],[3]] vs [[1],[2,3]] describe different subtrees and MUST
        // key apart (flat concatenation without length prefixes collides).
        let a = vec![
            ReplicaLadder { ladder: vec![t(1), t(2)], killable: true },
            ReplicaLadder { ladder: vec![t(3)], killable: true },
        ];
        let b = vec![
            ReplicaLadder { ladder: vec![t(1)], killable: true },
            ReplicaLadder { ladder: vec![t(2), t(3)], killable: true },
        ];
        assert_ne!(subtree_key(&a, 1), subtree_key(&b, 1));
        // Killable flag and budget are part of the subproblem.
        let c = vec![ReplicaLadder { ladder: vec![t(1), t(2)], killable: false }];
        let d = vec![ReplicaLadder { ladder: vec![t(1), t(2)], killable: true }];
        assert_ne!(subtree_key(&c, 1), subtree_key(&d, 1));
        assert_ne!(subtree_key(&c, 1), subtree_key(&c, 2));
        // A killable flag can never be confused with a one-entry ladder of
        // a zero/one completion (length prefixes self-delimit).
        let e = vec![
            ReplicaLadder { ladder: vec![t(1)], killable: true },
            ReplicaLadder { ladder: vec![t(1)], killable: true },
        ];
        let f = vec![ReplicaLadder { ladder: vec![t(1), t(1)], killable: true }];
        assert_ne!(subtree_key(&e, 0), subtree_key(&f, 0));
    }

    #[test]
    fn join_memo_equals_the_plain_dp_and_counts_hits() {
        let mut memo = JoinMemo::new();
        let a = vec![plain(50), ReplicaLadder { ladder: vec![t(60), t(120)], killable: true }];
        let b = vec![plain(50), plain(70), plain(90)];
        for budget in 0..4 {
            assert_eq!(memo.delivery(&a, budget), worst_case_delivery(&a, budget));
            assert_eq!(memo.delivery(&b, budget), worst_case_delivery(&b, budget));
        }
        assert_eq!((memo.hits(), memo.misses()), (0, 8));
        // Revisits hit; non-equivalent subtrees never cross.
        for budget in 0..4 {
            assert_eq!(memo.delivery(&a, budget), worst_case_delivery(&a, budget));
        }
        assert_eq!((memo.hits(), memo.misses()), (4, 8));
    }
}

//! The tentpole guarantee of the evaluation kernel: on random
//! applications, platforms and move sequences, `SystemEvaluator::evaluate`
//! (reused, warm buffers) and one-candidate
//! `SystemEvaluator::evaluate_changes` calls (suffix re-scheduling off an
//! anchored base, each move diffed into a change set by
//! `ChangeSets::push_diff`) both equal a fresh `estimate_schedule_length`
//! run **bit-for-bit** — same `Estimate` (including the critical process),
//! same error on infeasible states — for every fault budget k ∈ {0..3}.
//!
//! Moves are enumerated deterministically from the generated seed (no RNG
//! in the test itself), mixing remaps and repolicies exactly like the
//! search engines' neighborhood vocabulary.
//!
//! A second property extends the same discipline to whole neighborhoods:
//! `evaluate_changes` over a random neighborhood must equal one-candidate
//! calls and `estimate_schedule_length` bit-for-bit — results and errors,
//! in input order.
//!
//! A third pins the search's move-as-delta path: along walks through
//! replicated states, every change set `PlacementLoad::derive` emits holds
//! exactly the rows where `CopyMapping::from_base` of the moved state
//! differs from the current one, and `evaluate_changes` over the sets
//! equals `estimate_schedule_length` of the materialized states — result
//! for result, error for error.
//!
//! A fourth pins the committed anchor: along walks that move by
//! `SystemEvaluator::commit` instead of a full `evaluate`, the commit
//! answers the estimate its set got in the batch, and the next batch equals
//! that of a fresh evaluator anchored at the same state by `evaluate`.

use ftes::ft::{Policy, PolicyAssignment};
use ftes::ftcpg::{ChangeSets, CopyMapping, PlacementLoad};
use ftes::gen::{generate_application, GeneratorConfig};
use ftes::model::{Application, Mapping, NodeId, ProcessId, Time};
use ftes::opt::{apply_move, candidate_policies, Move};
use ftes::sched::{estimate_schedule_length, SystemEvaluator};
use ftes::tdma::Platform;
use proptest::prelude::*;

/// Deterministic move for one step of the walk: even steps remap, odd
/// steps repolicy, indices rotated by `seed` so different cases take
/// different trajectories.
fn step_move<'c>(
    app: &Application,
    mapping: &Mapping,
    cands: &'c [Vec<Policy>],
    seed: u64,
    step: u64,
) -> Option<Move<'c>> {
    let n = app.process_count() as u64;
    let p = ProcessId::new(((seed.wrapping_mul(31) + step.wrapping_mul(7)) % n) as usize);
    if step.is_multiple_of(2) {
        let proc = app.process(p);
        if proc.fixed_node().is_some() {
            return None;
        }
        let nodes: Vec<NodeId> = proc.candidate_nodes().collect();
        if nodes.len() < 2 {
            return None;
        }
        let to = nodes[((seed + step / 2) % nodes.len() as u64) as usize];
        if to == mapping.node_of(p) {
            return None;
        }
        Some(Move::Remap { process: p, to })
    } else {
        let cands = &cands[p.index()];
        let policy = &cands[((seed + step) % cands.len() as u64) as usize];
        Some(Move::Repolicy { process: p, policy })
    }
}

/// Every process's candidate policies under `k` (checkpoints capped at 8):
/// the lists `step_move` borrows its repolicies from.
fn candidates(app: &Application, k: u32) -> Vec<Vec<Policy>> {
    app.processes().map(|(p, _)| candidate_policies(app, p, k, 8)).collect()
}

proptest! {
    #[test]
    fn full_delta_and_legacy_agree_along_random_walks(
        seed in 0u64..1000,
        n in 6usize..13,
        nodes in 2usize..4,
    ) {
        // Rotate through graph shapes: default (√n layers), chain-heavy
        // (deep precedence, the replication regime) and wide (parallel
        // slack, the resource-contention regime).
        let config = match seed % 3 {
            0 => GeneratorConfig::new(n, nodes),
            1 => GeneratorConfig::chainy(n, nodes),
            _ => GeneratorConfig::wide(n, nodes),
        };
        let app = generate_application(&config, seed)
            .expect("generator configs in range are valid");
        let platform = Platform::homogeneous(nodes, Time::new(8)).expect("non-empty platform");
        let arch = platform.architecture();

        for k in 0u32..=3 {
            let mut mapping = Mapping::cheapest(&app, arch).expect("generated apps are mappable");
            let mut policies = PolicyAssignment::uniform_reexecution(&app, k);

            // One evaluator reused for full evaluations, one scoring each
            // move as a one-candidate batch off its anchored base.
            let mut full_eval = SystemEvaluator::new(&app, &platform, k);
            let mut delta_eval = SystemEvaluator::new(&app, &platform, k);
            let mut current = CopyMapping::from_base(&app, arch, &mapping, &policies)
                .expect("re-execution placement is feasible");
            let initial = estimate_schedule_length(&app, &platform, &current, &policies, k);
            prop_assert_eq!(&full_eval.evaluate(&current, &policies), &initial);
            prop_assert_eq!(&delta_eval.evaluate(&current, &policies), &initial);

            let cands = candidates(&app, k);
            for step in 0..10u64 {
                let Some(mv) = step_move(&app, &mapping, &cands, seed, step) else { continue };
                let Some((next_mapping, next_policies)) =
                    apply_move(&app, arch, &mapping, &policies, mv)
                else {
                    continue;
                };
                let Ok(copies) = CopyMapping::from_base(&app, arch, &next_mapping, &next_policies)
                else {
                    continue;
                };

                let legacy =
                    estimate_schedule_length(&app, &platform, &copies, &next_policies, k);
                let full = full_eval.evaluate(&copies, &next_policies);
                let mut sets = ChangeSets::new();
                sets.push_diff(&app, (&current, &policies), (&copies, &next_policies));
                let delta = delta_eval.evaluate_changes(&sets).remove(0);
                prop_assert_eq!(
                    &full, &legacy,
                    "reused full evaluation diverged (k={}, step={}, move={:?})", k, step, mv
                );
                prop_assert_eq!(
                    &delta, &legacy,
                    "delta evaluation diverged (k={}, step={}, move={:?})", k, step, mv
                );

                if legacy.is_ok() {
                    // Accept the move: re-anchor the delta kernel at the
                    // new current state.
                    prop_assert_eq!(&delta_eval.evaluate(&copies, &next_policies), &legacy);
                    (mapping, policies, current) = (next_mapping, next_policies, copies);
                }
            }
            // The walk must actually exercise the delta machinery.
            let stats = delta_eval.stats();
            prop_assert!(
                stats.delta_evals + stats.delta_noops + stats.delta_fallbacks > 0,
                "no delta calls happened (k={})", k
            );
        }
    }

    /// Batch-path guarantee: `evaluate_changes` over a random neighborhood
    /// (each neighbor diffed against the anchored state by `push_diff`) is
    /// bit-for-bit equal — results *and* errors, in input order — to
    /// one-candidate calls on an identically anchored kernel, and each of
    /// those to `estimate_schedule_length`, an oracle independent of the
    /// batch core. The neighborhood deliberately mixes remaps, repolicies,
    /// the base state itself (a noop) and, when k > 0, an invalid policy
    /// assignment (a validate error), so every batch code path is compared.
    #[test]
    fn batch_equals_one_candidate_calls_on_random_neighborhoods(
        seed in 0u64..1000,
        n in 6usize..13,
        nodes in 2usize..4,
    ) {
        let config = match seed % 3 {
            0 => GeneratorConfig::new(n, nodes),
            1 => GeneratorConfig::chainy(n, nodes),
            _ => GeneratorConfig::wide(n, nodes),
        };
        let app = generate_application(&config, seed)
            .expect("generator configs in range are valid");
        let platform = Platform::homogeneous(nodes, Time::new(8)).expect("non-empty platform");
        let arch = platform.architecture();

        for k in 0u32..=3 {
            let mapping = Mapping::cheapest(&app, arch).expect("generated apps are mappable");
            let policies = PolicyAssignment::uniform_reexecution(&app, k);
            let base_copies = CopyMapping::from_base(&app, arch, &mapping, &policies)
                .expect("re-execution placement is feasible");

            // Build the neighborhood from the same deterministic move
            // vocabulary as the walk test.
            let mut neighborhood: Vec<(CopyMapping, PolicyAssignment)> = Vec::new();
            let cands = candidates(&app, k);
            for step in 0..12u64 {
                let Some(mv) = step_move(&app, &mapping, &cands, seed, step) else { continue };
                let Some((m, p)) = apply_move(&app, arch, &mapping, &policies, mv) else {
                    continue;
                };
                let Ok(copies) = CopyMapping::from_base(&app, arch, &m, &p) else { continue };
                neighborhood.push((copies, p));
            }
            // The base state itself: the batch must answer it as a noop.
            neighborhood.insert(neighborhood.len() / 2, (base_copies.clone(), policies.clone()));
            if k > 0 {
                // An invalid assignment (tolerates 0 < k faults): both
                // paths must surface the same validate error.
                let bad = PolicyAssignment::uniform_reexecution(&app, 0);
                let bad_copies = CopyMapping::from_base(&app, arch, &mapping, &bad)
                    .expect("re-execution placement is feasible");
                neighborhood.insert(1, (bad_copies, bad));
            }

            // Anchored batch kernel vs. an identically anchored kernel
            // scoring one candidate per call.
            let mut batch_eval = SystemEvaluator::new(&app, &platform, k);
            let mut one_eval = SystemEvaluator::new(&app, &platform, k);
            prop_assert_eq!(
                &batch_eval.evaluate(&base_copies, &policies),
                &one_eval.evaluate(&base_copies, &policies)
            );

            let base = (&base_copies, &policies);
            let mut sets = ChangeSets::new();
            for (copies, pols) in &neighborhood {
                sets.push_diff(&app, base, (copies, pols));
            }
            let batch = batch_eval.evaluate_changes(&sets);
            prop_assert_eq!(batch.len(), neighborhood.len());

            for (i, (copies, pols)) in neighborhood.iter().enumerate() {
                let legacy = estimate_schedule_length(&app, &platform, copies, pols, k);
                let mut one = ChangeSets::new();
                one.push_diff(&app, base, (copies, pols));
                let one = one_eval.evaluate_changes(&one).remove(0);
                prop_assert_eq!(
                    &batch[i], &one,
                    "batch diverged from a one-candidate call (k={}, candidate={})", k, i
                );
                prop_assert_eq!(
                    &one, &legacy,
                    "one-candidate call diverged from legacy (k={}, candidate={})", k, i
                );
            }

            // The batch must exercise the batch counters.
            let stats = batch_eval.stats();
            prop_assert_eq!(stats.batch_evals, 1);
            prop_assert_eq!(stats.batch_candidates, neighborhood.len() as u64);
        }
    }

    /// Change-set guarantee: along a walk that starts replicated (MR, or
    /// a re-execution start whose repolicies favor replication), each
    /// candidate move's derived change set equals the diff of its
    /// materialized `from_base` state against the current state, and
    /// scoring the sets equals estimating the states — including an
    /// invalid policy (validate error) and an empty set (noop).
    #[test]
    fn change_sets_equal_materialized_states_along_replicated_walks(
        seed in 0u64..1000,
        n in 6usize..13,
        nodes in 2usize..5,
    ) {
        let config = match seed % 3 {
            0 => GeneratorConfig::new(n, nodes),
            1 => GeneratorConfig::chainy(n, nodes),
            _ => GeneratorConfig::wide(n, nodes),
        };
        let app = generate_application(&config, seed)
            .expect("generator configs in range are valid");
        let platform = Platform::homogeneous(nodes, Time::new(8)).expect("non-empty platform");
        let arch = platform.architecture();
        let invalid = Policy::reexecution(0);

        for k in 0u32..=3 {
            let mut mapping = Mapping::cheapest(&app, arch).expect("generated apps are mappable");
            let mut policies = if (seed + u64::from(k)).is_multiple_of(2) {
                PolicyAssignment::uniform_replication(&app, k)
            } else {
                PolicyAssignment::uniform_reexecution(&app, k)
            };
            let mut copies = CopyMapping::from_base(&app, arch, &mapping, &policies)
                .expect("placement is total");
            let mut load = PlacementLoad::new(&app, arch, &mapping, &policies);
            let mut change_eval = SystemEvaluator::new(&app, &platform, k);
            if change_eval.evaluate(&copies, &policies).is_err() {
                continue;
            }
            let (cands, replication) = (candidates(&app, k), Policy::replication(k));

            for step in 0..6u64 {
                // A neighborhood of the current state: remaps, and
                // repolicies of which every other one picks replication.
                let mut moves = Vec::new();
                for j in 0..8u64 {
                    let walk = step * 8 + j;
                    let Some(mv) = step_move(&app, &mapping, &cands, seed, walk) else {
                        continue;
                    };
                    let mv = match mv {
                        Move::Repolicy { process, .. } if k > 0 && walk % 4 == 1 => {
                            Move::Repolicy { process, policy: &replication }
                        }
                        mv => mv,
                    };
                    // Searches never sample a repolicy to the current policy.
                    if let Move::Repolicy { process, policy } = mv {
                        if policies.policy(process) == policy {
                            continue;
                        }
                    }
                    moves.push(mv);
                }
                let mut sets = ChangeSets::new();
                let mut kept = Vec::new();
                let mut states: Vec<(Mapping, PolicyAssignment, CopyMapping)> = Vec::new();
                for &mv in &moves {
                    let Some((m, p)) = apply_move(&app, arch, &mapping, &policies, mv) else {
                        continue;
                    };
                    let c = CopyMapping::from_base(&app, arch, &m, &p).expect("placement is total");
                    let process = mv.process();
                    mv.derive(&app, &mut load, &copies, &mut sets);
                    let mut expected = ChangeSets::new();
                    expected.push_diff(&app, (&copies, &policies), (&c, &p));
                    let derived: Vec<_> = sets.get(sets.len() - 1).iter().collect();
                    let diffed: Vec<_> = expected.get(0).iter().collect();
                    prop_assert_eq!(derived, diffed, "k={} step={} move={:?}", k, step, mv);
                    kept.push(process);
                    states.push((m, p, c));
                }
                // An invalid policy on the first process, and the state
                // itself as an empty set.
                let first = ProcessId::new(0);
                if k > 0 {
                    let row = copies.copies_of(first);
                    load.derive(&app, &copies, first, row[0], 1, Some(&invalid), &mut sets);
                    let mut bad = policies.clone();
                    bad.set(first, invalid.clone());
                    let c = CopyMapping::from_base(&app, arch, &mapping, &bad)
                        .expect("placement is total");
                    states.push((mapping.clone(), bad, c));
                }
                sets.close();
                states.push((mapping.clone(), policies.clone(), copies.clone()));

                let by_set = change_eval.evaluate_changes(&sets);
                prop_assert_eq!(by_set.len(), states.len());
                for (i, (_, p, c)) in states.iter().enumerate() {
                    let legacy = estimate_schedule_length(&app, &platform, c, p, k);
                    prop_assert_eq!(&by_set[i], &legacy, "k={} step={} candidate={}", k, step, i);
                }

                // Walk on: accept the first feasible move, as a search does.
                let Some(i) = (0..kept.len()).find(|&i| by_set[i].is_ok()) else { continue };
                let process = kept[i];
                let (m, p, c) = states.swap_remove(i);
                load.commit(
                    &app,
                    process,
                    mapping.node_of(process),
                    m.node_of(process),
                    c.copies_of(process).len(),
                );
                (mapping, policies, copies) = (m, p, c);
                prop_assert!(change_eval.evaluate(&copies, &policies).is_ok());
            }
        }
    }

    /// Committed-anchor guarantee: a kernel that follows its walk by
    /// `commit`ting each accepted change set stays indistinguishable from
    /// one anchored afresh by `evaluate`. Walks mix remaps, repolicies to
    /// and from replication, and sets moving every source process (one of
    /// which holds pop position 0, so the commit runs the full pass). Each
    /// step also commits the empty set (a no-op) and, when k > 0, an
    /// invalid policy, which must fail and leave the anchor where it was.
    #[test]
    fn committed_anchor_equals_full_evaluate(
        seed in 0u64..1000,
        n in 6usize..13,
        nodes in 2usize..5,
    ) {
        let config = match seed % 3 {
            0 => GeneratorConfig::new(n, nodes),
            1 => GeneratorConfig::chainy(n, nodes),
            _ => GeneratorConfig::wide(n, nodes),
        };
        let app = generate_application(&config, seed)
            .expect("generator configs in range are valid");
        let platform = Platform::homogeneous(nodes, Time::new(8)).expect("non-empty platform");
        let arch = platform.architecture();
        let invalid = Policy::reexecution(0);
        let sources: Vec<ProcessId> = app
            .processes()
            .map(|(p, _)| p)
            .filter(|&p| app.predecessors(p).is_empty())
            .collect();

        for k in 0u32..=3 {
            let mut mapping = Mapping::cheapest(&app, arch).expect("generated apps are mappable");
            let mut policies = if (seed + u64::from(k)).is_multiple_of(2) {
                PolicyAssignment::uniform_replication(&app, k)
            } else {
                PolicyAssignment::uniform_reexecution(&app, k)
            };
            let mut copies = CopyMapping::from_base(&app, arch, &mapping, &policies)
                .expect("placement is total");
            let mut load = PlacementLoad::new(&app, arch, &mapping, &policies);
            let mut committed = SystemEvaluator::new(&app, &platform, k);
            if committed.evaluate(&copies, &policies).is_err() {
                continue;
            }
            let (cands, replication) = (candidates(&app, k), Policy::replication(k));
            let reexecution = Policy::reexecution(k);

            for step in 0..8u64 {
                // Every source process moved at once: one of them holds pop
                // position 0.
                let (mut sm, mut sp) = (mapping.clone(), policies.clone());
                for &source in &sources {
                    let to = if sp.policy(source) == &replication { &reexecution } else { &replication };
                    sp.set(source, to.clone());
                    let node = app.process(source).candidate_nodes().last().expect("mappable");
                    if let Ok(moved) = sm.with_move(&app, arch, source, node) {
                        sm = moved;
                    }
                }
                let sc = CopyMapping::from_base(&app, arch, &sm, &sp).expect("placement is total");

                // The neighborhood: single-process moves, the all-sources
                // set, the state itself (an empty set) and an invalid policy.
                let mut sets = ChangeSets::new();
                let mut states: Vec<(Mapping, PolicyAssignment, CopyMapping)> = Vec::new();
                for j in 0..6u64 {
                    let walk = step * 6 + j;
                    let Some(mv) = step_move(&app, &mapping, &cands, seed, walk) else {
                        continue;
                    };
                    let mv = match mv {
                        Move::Repolicy { process, .. } if k > 0 && walk % 3 == 1 => {
                            Move::Repolicy { process, policy: &replication }
                        }
                        mv => mv,
                    };
                    if let Move::Repolicy { process, policy } = mv {
                        if policies.policy(process) == policy {
                            continue;
                        }
                    }
                    let Some((m, p)) = apply_move(&app, arch, &mapping, &policies, mv) else {
                        continue;
                    };
                    let c = CopyMapping::from_base(&app, arch, &m, &p).expect("placement is total");
                    mv.derive(&app, &mut load, &copies, &mut sets);
                    states.push((m, p, c));
                }
                let all_sources = states.len();
                sets.push_diff(&app, (&copies, &policies), (&sc, &sp));
                let empty = all_sources + 1;
                sets.close();
                let first = ProcessId::new(0);
                if k > 0 {
                    let row = copies.copies_of(first);
                    load.derive(&app, &copies, first, row[0], 1, Some(&invalid), &mut sets);
                }

                // The committed kernel scores like a freshly anchored one.
                let batch = committed.evaluate_changes(&sets);
                let mut fresh = SystemEvaluator::new(&app, &platform, k);
                prop_assert!(fresh.evaluate(&copies, &policies).is_ok());
                prop_assert_eq!(&batch, &fresh.evaluate_changes(&sets), "k={} step={}", k, step);

                // An empty set commits nothing; an invalid policy fails.
                prop_assert_eq!(&committed.commit(sets.get(empty)), &batch[empty]);
                if k > 0 {
                    prop_assert!(committed.commit(sets.get(empty + 1)).is_err());
                    prop_assert!(batch[empty + 1].is_err());
                }
                prop_assert_eq!(&committed.evaluate_changes(&sets), &batch, "k={} step={}", k, step);

                // Walk on: every other step along the all-sources set,
                // otherwise the first feasible single move from a rotating
                // start.
                let pick = if step % 2 == 1 && batch[all_sources].is_ok() {
                    Some(all_sources)
                } else {
                    (0..all_sources)
                        .map(|j| (j + step as usize) % all_sources)
                        .find(|&i| batch[i].is_ok())
                };
                let Some(i) = pick else { continue };
                let estimate = committed.commit(sets.get(i));
                prop_assert_eq!(&estimate, &batch[i], "k={} step={} candidate={}", k, step, i);
                (mapping, policies, copies) =
                    if i == all_sources { (sm, sp, sc) } else { states.swap_remove(i) };
                load = PlacementLoad::new(&app, arch, &mapping, &policies);
            }
            // The state the walk ended at, once more.
            let mut fresh = SystemEvaluator::new(&app, &platform, k);
            let expected = fresh.evaluate(&copies, &policies);
            let mut sets = ChangeSets::new();
            sets.close();
            prop_assert_eq!(&committed.evaluate_changes(&sets)[0], &expected);
        }
    }
}

//! The tentpole guarantee of incremental certification: on random
//! applications and move sequences, one *warm* [`Certifier`] — anchored
//! FT-CPG rebuilds, the verdict memo and the shared fault-scenario
//! subtree memo all live across the walk — equals a *monolithic* fresh
//! certifier per state **bit-for-bit**: same [`CertOutcome`] (exact
//! length and deadline verdict), same artifacts (FT-CPG + conditional
//! schedule), same error text on broken states, and the same
//! [`BoundedCert`] (including the proven lower bound of a pruned
//! refutation) — for every fault budget k ∈ {0..3} across three graph
//! shapes.
//!
//! Moves are enumerated deterministically from the generated seed (no RNG
//! in the test itself), mixing remaps and repolicies exactly like the
//! search engines' neighborhood vocabulary; the walk re-certifies its
//! base state after every step, so memo-hit revisits are compared
//! against fresh monolithic runs too.

use ftes::explore::StateKey;
use ftes::ft::{Policy, PolicyAssignment};
use ftes::ftcpg::CopyMapping;
use ftes::gen::{generate_application, GeneratorConfig};
use ftes::model::{Application, FaultModel, Mapping, NodeId, ProcessId, Time, Transparency};
use ftes::opt::{apply_move, candidate_policies, Move};
use ftes::sched::{BoundedCert, CertOutcome, Certifier, CertifyConfig, CertifyError};
use ftes::tdma::Platform;
use proptest::prelude::*;

/// Deterministic move for one step of the walk: even steps remap, odd
/// steps repolicy, indices rotated by `seed` so different cases take
/// different trajectories (same vocabulary as `evaluator_equality.rs`).
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

/// An unbudgeted certifier — the warm/monolithic comparison must never
/// diverge on an exhausted work budget (the warm side accumulates exact
/// runs across the whole walk, a fresh one starts at zero every state).
fn fresh_certifier(app: &Application, platform: &Platform, k: u32) -> Certifier {
    Certifier::new(
        app,
        platform,
        FaultModel::new(k),
        &Transparency::none(),
        CertifyConfig { max_exact_runs: u64::MAX, ..CertifyConfig::default() },
    )
}

/// Certify on both sides and compare outcomes bit-for-bit, folding hard
/// errors into their debug text (`CertifyError` is non-exhaustive and
/// carries no `PartialEq`).
fn compare_unbounded(
    inc: &mut Certifier,
    mono: &mut Certifier,
    copies: &CopyMapping,
    policies: &PolicyAssignment,
) -> Result<Option<CertOutcome>, TestCaseError> {
    let warm = inc.certify(copies, policies);
    let cold = mono.certify(copies, policies);
    match (warm, cold) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(a, b, "incremental verdict diverged from monolithic");
            Ok(Some(a))
        }
        (Err(a), Err(b)) => {
            prop_assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "incremental error diverged from monolithic"
            );
            Ok(None)
        }
        (warm, cold) => {
            prop_assert!(false, "verdict/error mismatch: warm {warm:?} vs cold {cold:?}");
            unreachable!("prop_assert! above returns");
        }
    }
}

proptest! {
    /// Unbounded certification: a warm certifier walking random delta
    /// chains (with base-state revisits after every step) must match a
    /// fresh monolithic certifier on every state — verdicts, artifacts
    /// and errors.
    #[test]
    fn incremental_certify_equals_monolithic_along_random_walks(
        seed in 0u64..1000,
        n in 6usize..12,
        nodes in 2usize..4,
    ) {
        // Rotate through graph shapes: default (√n layers), chain-heavy
        // (deep precedence) and wide (parallel slack / contention).
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
            let cands = candidates(&app, k);
            let mut mapping = Mapping::cheapest(&app, arch).expect("generated apps are mappable");
            let mut policies = PolicyAssignment::uniform_reexecution(&app, k);
            let mut inc = fresh_certifier(&app, &platform, k);

            // The revisit state is frozen as a consistent pair — the walk
            // mutates `policies`, and a copy mapping is only meaningful
            // with the assignment it was derived from.
            let base_policies = policies.clone();
            let base_copies = CopyMapping::from_base(&app, arch, &mapping, &base_policies)
                .expect("re-execution placement is feasible");
            let mut mono = fresh_certifier(&app, &platform, k);
            compare_unbounded(&mut inc, &mut mono, &base_copies, &base_policies)?;

            let mut fresh_states = 0u32;
            for step in 0..8u64 {
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

                let runs_before = inc.stats().exact_runs;
                let mut mono = fresh_certifier(&app, &platform, k);
                let outcome = compare_unbounded(&mut inc, &mut mono, &copies, &next_policies)?;

                // Artifact equality: whenever the warm side actually
                // scheduled this state (first visit), its FT-CPG and
                // exact conditional schedule must be bit-identical to
                // the monolithic build. (A memo-hit revisit schedules
                // nothing, so its artifact slot legitimately holds an
                // older configuration — `take_artifacts` answers `None`.)
                let scheduled_now = inc.stats().exact_runs > runs_before;
                if scheduled_now {
                    fresh_states += 1;
                }
                if scheduled_now && matches!(outcome, Some(CertOutcome::Exact { .. })) {
                    let warm_art = inc.take_artifacts(&copies, &next_policies);
                    let cold_art = mono.take_artifacts(&copies, &next_policies);
                    prop_assert!(warm_art.is_some(), "warm run must yield artifacts");
                    prop_assert!(cold_art.is_some(), "cold run must yield artifacts");
                    prop_assert_eq!(
                        warm_art, cold_art,
                        "artifacts diverged (k={}, step={}, move={:?})", k, step, mv
                    );
                }

                // Revisit the *base* state: the warm side answers from its
                // verdict memo, the fresh monolithic one re-schedules —
                // the memo must be transparent.
                let mut mono = fresh_certifier(&app, &platform, k);
                compare_unbounded(&mut inc, &mut mono, &base_copies, &base_policies)?;

                if outcome.is_some() {
                    mapping = next_mapping;
                    policies = next_policies;
                }
            }
            // When the walk reached fresh states, it must have exercised
            // the incremental machinery (a walk that never escapes its
            // base — possible at k = 0 with a degenerate move menu — has
            // nothing to rebuild and is covered by the other cases).
            if fresh_states > 0 {
                prop_assert!(
                    inc.stats().incremental_builds > 0,
                    "no incremental rebuilds happened (k={})", k
                );
                prop_assert!(
                    inc.stats().cache_hits > 0,
                    "no verdict-memo hits happened (k={})", k
                );
            }
        }
    }

    /// Bounded certification: against the same bound, a warm certifier
    /// and a fresh monolithic one must return the same [`BoundedCert`] —
    /// including the proven lower bound of a pruned refutation — and a
    /// bound the state meets must reproduce the unbounded verdict.
    #[test]
    fn bounded_certify_equals_monolithic_and_prunes_identically(
        seed in 0u64..1000,
        n in 6usize..12,
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
            let cands = candidates(&app, k);
            let mut mapping = Mapping::cheapest(&app, arch).expect("generated apps are mappable");
            let mut policies = PolicyAssignment::uniform_reexecution(&app, k);
            let mut warm = fresh_certifier(&app, &platform, k);
            let mut pruned_states = 0u32;
            // Each state is bounded-certified at most once: a revisit
            // would answer from the warm side's verdict memo (a full
            // verdict, by documented design) while the fresh monolithic
            // side prunes — a legitimate asymmetry, not an inequality.
            let mut seen = std::collections::HashSet::new();

            for step in 0..6u64 {
                if let Some(mv) = step_move(&app, &mapping, &cands, seed, step) {
                    if let Some((m, p)) = apply_move(&app, arch, &mapping, &policies, mv) {
                        if CopyMapping::from_base(&app, arch, &m, &p).is_ok() {
                            mapping = m;
                            policies = p;
                        }
                    }
                }
                let Ok(copies) = CopyMapping::from_base(&app, arch, &mapping, &policies) else {
                    continue;
                };
                if !seen.insert(StateKey::encode(&mapping, &policies)) {
                    continue;
                }

                // The oracle derives this state's exact length so the
                // bounds below are guaranteed to straddle it.
                let mut oracle = fresh_certifier(&app, &platform, k);
                let Ok(CertOutcome::Exact { exact_len, .. }) =
                    oracle.certify(&copies, &policies)
                else {
                    continue;
                };
                if exact_len <= Time::ZERO {
                    continue;
                }

                // Below the exact length: both sides must prove the same
                // refutation, lower bound included.
                let refuting = Time::new(exact_len.units() - 1);
                let warm_refuted = warm.certify_bounded(&copies, &policies, refuting);
                let mut mono = fresh_certifier(&app, &platform, k);
                let cold_refuted = mono.certify_bounded(&copies, &policies, refuting);
                match (warm_refuted, cold_refuted) {
                    (Ok(a), Ok(b)) => {
                        prop_assert_eq!(a, b, "bounded refutation diverged (k={}, step={})", k, step);
                        if let BoundedCert::Pruned { lower_bound } = a {
                            prop_assert!(lower_bound > refuting, "pruned bound must refute");
                            pruned_states += 1;
                        }
                    }
                    (a, b) => {
                        let (a, b) = (err_text(a), err_text(b));
                        prop_assert_eq!(a, b, "bounded error diverged (k={}, step={})", k, step);
                    }
                }

                // At the exact length: both sides must complete with the
                // unbounded verdict (the stored refutation bound must not
                // over-prune a bound the state meets).
                let meeting = exact_len;
                let warm_met = warm.certify_bounded(&copies, &policies, meeting);
                let mut mono = fresh_certifier(&app, &platform, k);
                let cold_met = mono.certify_bounded(&copies, &policies, meeting);
                match (warm_met, cold_met) {
                    (Ok(a), Ok(b)) => {
                        prop_assert_eq!(a, b, "bounded verdict diverged (k={}, step={})", k, step);
                        prop_assert!(
                            matches!(a, BoundedCert::Verdict(CertOutcome::Exact { .. })),
                            "a met bound must certify exactly (k={}, step={}, got {:?})", k, step, a
                        );
                    }
                    (a, b) => {
                        let (a, b) = (err_text(a), err_text(b));
                        prop_assert_eq!(a, b, "bounded error diverged (k={}, step={})", k, step);
                    }
                }
            }
            if k > 0 {
                prop_assert!(
                    pruned_states > 0,
                    "the bounded walk never pruned (k={})", k
                );
            }
        }
    }
}

/// Debug text of a bounded result, for comparing the error arms
/// (`CertifyError` is non-exhaustive and not `PartialEq`).
fn err_text(r: Result<BoundedCert, CertifyError>) -> String {
    match r {
        Ok(v) => format!("ok: {v:?}"),
        Err(e) => format!("err: {e:?}"),
    }
}

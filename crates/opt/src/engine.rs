//! The three metaheuristics' acceptance rules, written once: tabu search
//! (the paper's MXR engine \[13\]), simulated annealing and greedy steepest
//! descent. [`Acceptance::step`] judges one iteration's scored candidates;
//! the serial [`search`](crate::search) loop and the `ftes-explore`
//! portfolio workers both drive it, each with its own objective and its own
//! certify-guided admission hook.

use ftes_model::{ProcessId, Time};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::fmt;

/// The metaheuristic a search runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Tabu search (the paper's MXR engine): the best sampled move whose
    /// process is not tabu, or any move that beats the best (aspiration).
    Tabu,
    /// Simulated annealing with geometric cooling.
    Anneal,
    /// Greedy steepest descent (only improving moves).
    Greedy,
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EngineKind::Tabu => "tabu",
            EngineKind::Anneal => "anneal",
            EngineKind::Greedy => "greedy",
        };
        write!(f, "{s}")
    }
}

/// A state as [`Acceptance::step`] judges it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scored<O> {
    /// Estimated worst-case length: annealing measures its steps in it.
    pub worst_case: Time,
    /// The objective the engines order states by (smaller is better).
    pub objective: O,
}

/// What one [`Acceptance::step`] decided, as indices into its candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Step {
    /// The candidate the walk ends on (`None`: the walk stays put).
    pub walk: Option<usize>,
    /// The last candidate promoted to best (`None`: the best stays).
    pub promoted: Option<usize>,
}

/// One search's acceptance state: the tabu list, the iteration count and
/// the annealing temperature.
#[derive(Debug, Clone)]
pub struct Acceptance {
    engine: EngineKind,
    tenure: usize,
    /// The iteration until which each process stays tabu.
    tabu_until: Vec<usize>,
    iteration: usize,
    temperature: f64,
}

impl Acceptance {
    /// The acceptance state of a search over `processes` processes that
    /// starts from a state with worst case `initial`. A process a tabu
    /// search moves stays tabu for `tenure` iterations; the annealing
    /// temperature starts at 5% of `initial` (at least 1).
    pub fn new(engine: EngineKind, processes: usize, tenure: usize, initial: Time) -> Self {
        Acceptance {
            engine,
            tenure,
            tabu_until: vec![0; processes],
            iteration: 0,
            temperature: (initial.as_f64() * 0.05).max(1.0),
        }
    }

    /// Judges one iteration's feasible candidates, in sample order, each
    /// with the process its move touches. `current` is the state they were
    /// sampled from and `best` the best objective so far.
    ///
    /// * **Tabu** walks to the best candidate whose process is not tabu,
    ///   or that beats `best` (aspiration), and makes its process tabu.
    /// * **Greedy** walks to the best candidate that beats `current`.
    /// * **Annealing** walks through the candidates in order, accepting an
    ///   improving one always and a worsening one with probability
    ///   `exp(−Δ/T)`, `Δ` measured from the last accepted state; the walk
    ///   ends on the last accepted candidate.
    ///
    /// Ties go to the first candidate in sample order. Only annealing draws
    /// from `rng`, and only for a worsening candidate.
    ///
    /// `promote(i)` is asked whether accepted candidate `i` may become the
    /// best; it is called only when `i` beats the best. A refusal keeps the
    /// best but still moves the walk. Tabu and greedy count
    /// `search.iter`/`search.accept`/`search.reject` once per call,
    /// annealing once per candidate.
    ///
    /// # Errors
    ///
    /// Propagates the hook's error.
    pub fn step<O: Ord + Copy, E>(
        &mut self,
        candidates: &[(ProcessId, Scored<O>)],
        current: Scored<O>,
        best: O,
        rng: &mut ChaCha8Rng,
        mut promote: impl FnMut(usize) -> Result<bool, E>,
    ) -> Result<Step, E> {
        let mut step = Step::default();
        match self.engine {
            EngineKind::Anneal => {
                let (mut walk, mut best) = (current.worst_case, best);
                for (i, (_, candidate)) in candidates.iter().enumerate() {
                    let delta = (candidate.worst_case - walk).as_f64();
                    let accept =
                        delta <= 0.0 || rng.gen_bool((-delta / self.temperature).exp().min(1.0));
                    count(accept);
                    if accept {
                        walk = candidate.worst_case;
                        step.walk = Some(i);
                        if candidate.objective < best && promote(i)? {
                            best = candidate.objective;
                            step.promoted = Some(i);
                        }
                    }
                }
                self.temperature = (self.temperature * 0.95).max(1e-3);
            }
            EngineKind::Tabu | EngineKind::Greedy => {
                let tabu = self.engine == EngineKind::Tabu;
                for (i, (process, candidate)) in candidates.iter().enumerate() {
                    let eligible = if tabu {
                        self.tabu_until[process.index()] <= self.iteration
                            || candidate.objective < best
                    } else {
                        candidate.objective < current.objective
                    };
                    let better = |w: usize| candidate.objective < candidates[w].1.objective;
                    if eligible && step.walk.is_none_or(better) {
                        step.walk = Some(i);
                    }
                }
                count(step.walk.is_some());
                if let Some(i) = step.walk {
                    let (process, candidate) = candidates[i];
                    if tabu {
                        self.tabu_until[process.index()] = self.iteration + self.tenure;
                    }
                    if candidate.objective < best && promote(i)? {
                        step.promoted = Some(i);
                    }
                }
            }
        }
        self.iteration += 1;
        Ok(step)
    }
}

/// Counts one judged move on the `search.*` trace counters.
fn count(accept: bool) {
    ftes_obs::counter(ftes_obs::names::SEARCH_ITER, 1);
    let name = if accept { ftes_obs::names::SEARCH_ACCEPT } else { ftes_obs::names::SEARCH_REJECT };
    ftes_obs::counter(name, 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    /// The next draw of `rng`, without advancing it.
    fn peek(rng: &ChaCha8Rng) -> u64 {
        rng.clone().next_u64()
    }

    /// A candidate touching process `p` whose objective is its worst case.
    fn cand(p: usize, worst_case: i64) -> (ProcessId, Scored<i64>) {
        (ProcessId::new(p), scored(worst_case))
    }

    fn scored(worst_case: i64) -> Scored<i64> {
        Scored { worst_case: Time::new(worst_case), objective: worst_case }
    }

    /// Steps `acceptance` with a hook that admits every promotion,
    /// recording the candidates it was asked about.
    fn step(
        acceptance: &mut Acceptance,
        candidates: &[(ProcessId, Scored<i64>)],
        current: i64,
        best: i64,
        rng: &mut ChaCha8Rng,
    ) -> (Step, Vec<usize>) {
        let mut asked = Vec::new();
        let step = acceptance.step(candidates, scored(current), best, rng, |i| {
            asked.push(i);
            Ok::<_, ()>(true)
        });
        (step.unwrap(), asked)
    }

    #[test]
    fn tabu_skips_tabu_processes_unless_they_beat_the_best() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut tabu = Acceptance::new(EngineKind::Tabu, 3, 2, Time::new(100));
        // A worsening move is still taken (tabu walks on); process 0
        // becomes tabu for two iterations.
        let (first, asked) = step(&mut tabu, &[cand(0, 110), cand(1, 120)], 100, 100, &mut rng);
        assert_eq!(first, Step { walk: Some(0), promoted: None });
        assert!(asked.is_empty(), "a candidate that does not beat the best is never promoted");
        // Process 0 is tabu: its better move is skipped for process 1's.
        let (second, _) = step(&mut tabu, &[cand(0, 105), cand(1, 108)], 110, 100, &mut rng);
        assert_eq!(second.walk, Some(1));
        // Aspiration: a tabu move that beats the best is taken anyway.
        let (third, asked) = step(&mut tabu, &[cand(1, 99), cand(2, 101)], 108, 100, &mut rng);
        assert_eq!(third, Step { walk: Some(0), promoted: Some(0) });
        assert_eq!(asked, [0]);
    }

    #[test]
    fn tabu_takes_the_first_of_equal_candidates() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut tabu = Acceptance::new(EngineKind::Tabu, 3, 2, Time::new(100));
        let candidates = [cand(2, 95), cand(0, 90), cand(1, 90)];
        let (chosen, _) = step(&mut tabu, &candidates, 100, 100, &mut rng);
        assert_eq!(chosen, Step { walk: Some(1), promoted: Some(1) });
    }

    #[test]
    fn greedy_moves_nowhere_without_an_improving_candidate() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut greedy = Acceptance::new(EngineKind::Greedy, 3, 0, Time::new(100));
        // Greedy judges against the current state (110), not the best (100).
        let (stay, asked) = step(&mut greedy, &[cand(0, 110), cand(1, 130)], 110, 100, &mut rng);
        assert_eq!(stay, Step::default());
        assert!(asked.is_empty());
        let (moved, asked) =
            step(&mut greedy, &[cand(0, 108), cand(1, 105), cand(2, 105)], 110, 100, &mut rng);
        assert_eq!(moved, Step { walk: Some(1), promoted: None });
        assert!(asked.is_empty(), "an improvement on the current state need not beat the best");
    }

    #[test]
    fn annealing_accepts_improvements_without_drawing() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let untouched = peek(&rng);
        let mut anneal = Acceptance::new(EngineKind::Anneal, 3, 0, Time::new(100));
        // Each candidate improves on the last accepted one; the walk ends
        // on the last, which is also the last promoted.
        let candidates = [cand(0, 99), cand(1, 97), cand(2, 97), cand(0, 90)];
        let (walked, asked) = step(&mut anneal, &candidates, 100, 100, &mut rng);
        assert_eq!(walked, Step { walk: Some(3), promoted: Some(3) });
        assert_eq!(asked, [0, 1, 3], "an equal candidate is accepted but beats no best");
        assert_eq!(peek(&rng), untouched, "improving candidates draw nothing");
        // A worsening candidate draws once; at the floor temperature the
        // draw refuses it, so the walk ends on the last accepted one.
        let mut cold = Acceptance::new(EngineKind::Anneal, 3, 0, Time::new(1));
        cold.temperature = 1e-3;
        let (walked, _) = step(&mut cold, &[cand(0, 95), cand(1, 500)], 100, 100, &mut rng);
        assert_eq!(walked, Step { walk: Some(0), promoted: Some(0) });
        assert_ne!(peek(&rng), untouched, "the worsening candidate drew");
    }

    #[test]
    fn a_refused_promotion_keeps_the_best_but_moves_the_walk() {
        for engine in [EngineKind::Tabu, EngineKind::Greedy, EngineKind::Anneal] {
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let mut acceptance = Acceptance::new(engine, 3, 2, Time::new(100));
            let candidates = [cand(0, 120), cand(1, 90)];
            let mut asked = Vec::new();
            let stepped = acceptance
                .step(&candidates, scored(100), 100, &mut rng, |i| {
                    asked.push(i);
                    Ok::<_, ()>(false)
                })
                .unwrap();
            assert_eq!(stepped, Step { walk: Some(1), promoted: None }, "{engine}");
            assert_eq!(asked, [1], "{engine}: only the candidate beating the best is asked");
        }
    }

    #[test]
    fn the_hook_error_propagates() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut tabu = Acceptance::new(EngineKind::Tabu, 1, 2, Time::new(100));
        let result = tabu.step(&[cand(0, 90)], scored(100), 100, &mut rng, |_| Err("refused"));
        assert_eq!(result, Err("refused"));
    }

    #[test]
    fn engine_names() {
        let names =
            [EngineKind::Tabu, EngineKind::Anneal, EngineKind::Greedy].map(|e| e.to_string());
        assert_eq!(names, ["tabu", "anneal", "greedy"]);
    }
}

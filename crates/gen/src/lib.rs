//! # ftes-gen
//!
//! Seeded synthetic workload generation for the paper's experiments (§6):
//! random layered task graphs of 20–100 processes mapped on architectures
//! of 2–6 nodes, with WCETs, mapping restrictions, fault-tolerance
//! overheads and message sizes drawn from configurable ranges — the
//! substitution for the authors' unpublished TGFF-style generator (see
//! DESIGN.md).
//!
//! Generation is deterministic in `(config, seed)` across platforms
//! (ChaCha-based), so every figure harness is exactly reproducible.
//!
//! ```
//! use ftes_gen::{generate_application, GeneratorConfig};
//!
//! # fn main() -> Result<(), ftes_model::ModelError> {
//! let config = GeneratorConfig::new(20, 3);
//! let app = generate_application(&config, 42)?;
//! assert_eq!(app.process_count(), 20);
//! assert_eq!(app.node_count(), 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;

use ftes_model::{Application, ApplicationBuilder, ModelError, ProcessId, ProcessSpec, Time};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Parameters of the synthetic application generator.
///
/// Defaults follow the paper's experimental setup: WCETs of 10–100 time
/// units, error-detection/recovery/checkpointing overheads of 5–15% of the
/// WCET, most processes mappable on most nodes with ±50% WCET variation
/// between nodes, and a deadline derived from the serial load with a
/// configurable slack factor.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Number of processes `|V|`.
    pub process_count: usize,
    /// Number of architecture nodes `|N|`.
    pub node_count: usize,
    /// Number of DAG layers (defaults to `⌈√|V|⌉` when `None`).
    pub layers: Option<usize>,
    /// Probability of an edge between consecutive-layer process pairs.
    pub edge_probability: f64,
    /// Base WCET range (inclusive).
    pub wcet_range: (i64, i64),
    /// Per-node WCET multiplier spread: node WCET = base · U(1, 1 + spread).
    pub wcet_node_variation: f64,
    /// Probability that a process can execute on a given non-home node
    /// (its home node is always feasible — the `X` entries of Fig. 3c).
    pub mappable_fraction: f64,
    /// Error-detection overhead `α` as a fraction range of the base WCET.
    pub alpha_fraction: (f64, f64),
    /// Recovery overhead `µ` as a fraction range of the base WCET.
    pub mu_fraction: (f64, f64),
    /// Checkpointing overhead `χ` as a fraction range of the base WCET.
    pub chi_fraction: (f64, f64),
    /// Bus transmission time range for messages.
    pub transmission_range: (i64, i64),
    /// Deadline = serial-load lower bound · this factor.
    pub deadline_factor: f64,
}

impl GeneratorConfig {
    /// The paper-style configuration for a given size.
    pub fn new(process_count: usize, node_count: usize) -> Self {
        GeneratorConfig {
            process_count,
            node_count,
            layers: None,
            edge_probability: 0.3,
            wcet_range: (10, 100),
            wcet_node_variation: 0.5,
            mappable_fraction: 0.8,
            alpha_fraction: (0.05, 0.15),
            mu_fraction: (0.05, 0.15),
            chi_fraction: (0.03, 0.10),
            transmission_range: (1, 4),
            deadline_factor: 4.0,
        }
    }

    /// A chain-heavy variant: deep layering (`|V|/2` layers) with dense
    /// consecutive-layer edges. Precedence chains leave spare processor
    /// capacity — the replication-friendly regime of the paper's §3.2 —
    /// and this is the shape the figure harnesses sweep (EXPERIMENTS.md
    /// records the calibration).
    pub fn chainy(process_count: usize, node_count: usize) -> Self {
        GeneratorConfig {
            layers: Some((process_count / 2).max(2)),
            edge_probability: 0.7,
            ..GeneratorConfig::new(process_count, node_count)
        }
    }

    /// A wide, parallel-heavy variant: few layers, so most processes are
    /// independent and the schedulers contend on processors rather than on
    /// precedence — the stress shape for resource-table logic (the
    /// evaluator equality property test mixes this with
    /// [`chainy`](GeneratorConfig::chainy) and the default shape).
    pub fn wide(process_count: usize, node_count: usize) -> Self {
        GeneratorConfig {
            layers: Some(3.min(process_count.max(1))),
            edge_probability: 0.4,
            ..GeneratorConfig::new(process_count, node_count)
        }
    }

    fn layer_count(&self) -> usize {
        self.layers.unwrap_or_else(|| (self.process_count as f64).sqrt().ceil() as usize).max(1)
    }
}

/// Generates one random application; deterministic in `(config, seed)`.
///
/// # Errors
///
/// Propagates [`ModelError`] from application validation (only reachable
/// with degenerate configurations, e.g. `process_count == 0`). With
/// `node_count == 0` no process has a node to run on, reported as
/// [`ModelError::NoFeasibleNode`] for the first process — the spec
/// parser's error for the same input.
pub fn generate_application(
    config: &GeneratorConfig,
    seed: u64,
) -> Result<Application, ModelError> {
    if config.node_count == 0 {
        return Err(ModelError::NoFeasibleNode(ProcessId::new(0)));
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = config.process_count;
    let layer_count = config.layer_count();
    // Assign every process to a layer; guarantee no empty layers by seeding
    // one process per layer first.
    let mut layer_of = vec![0usize; n];
    for (i, l) in layer_of.iter_mut().enumerate().take(layer_count.min(n)) {
        *l = i;
    }
    for l in layer_of.iter_mut().skip(layer_count.min(n)) {
        *l = rng.gen_range(0..layer_count);
    }

    let mut builder = ApplicationBuilder::new(config.node_count);
    let mut serial_load = Time::ZERO;
    for i in 0..n {
        let base = rng.gen_range(config.wcet_range.0..=config.wcet_range.1);
        serial_load += Time::new(base);
        let home = rng.gen_range(0..config.node_count);
        let wcet: Vec<Option<Time>> = (0..config.node_count)
            .map(|node| {
                if node != home && !rng.gen_bool(config.mappable_fraction) {
                    return None;
                }
                let factor = 1.0 + rng.gen_range(0.0..=config.wcet_node_variation);
                Some(Time::new(((base as f64) * factor).round() as i64))
            })
            .collect();
        let frac = |r: (f64, f64), rng: &mut ChaCha8Rng| {
            Time::new(((base as f64) * rng.gen_range(r.0..=r.1)).round().max(0.0) as i64)
        };
        let alpha = frac(config.alpha_fraction, &mut rng);
        let mu = frac(config.mu_fraction, &mut rng);
        let chi = frac(config.chi_fraction, &mut rng);
        builder.add_process(ProcessSpec::new(format!("P{i}"), wcet).overheads(alpha, mu, chi));
    }

    // Edges between consecutive layers (plus occasional skips) keep the
    // graph acyclic by construction.
    let mut msg = 0usize;
    for src in 0..n {
        for dst in 0..n {
            if layer_of[dst] <= layer_of[src] {
                continue;
            }
            let adjacent = layer_of[dst] == layer_of[src] + 1;
            let p = if adjacent { config.edge_probability } else { config.edge_probability * 0.1 };
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                let trans =
                    rng.gen_range(config.transmission_range.0..=config.transmission_range.1);
                builder
                    .add_message(
                        format!("m{msg}"),
                        ProcessId::new(src),
                        ProcessId::new(dst),
                        Time::new(trans),
                    )
                    .expect("layered edges are acyclic and unique");
                msg += 1;
            }
        }
    }

    // Deadline: serial load per node, inflated by the slack factor (the FTO
    // metric is relative, so the absolute deadline only gates feasibility).
    let per_node = Time::new(serial_load.units() / config.node_count.max(1) as i64);
    let deadline = Time::new(
        ((per_node.units().max(config.wcet_range.1) as f64) * config.deadline_factor) as i64,
    );
    builder.deadline(deadline).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let config = GeneratorConfig::new(30, 3);
        let a = generate_application(&config, 7).unwrap();
        let b = generate_application(&config, 7).unwrap();
        assert_eq!(a, b);
        let c = generate_application(&config, 8).unwrap();
        assert_ne!(a, c, "different seeds give different applications");
    }

    #[test]
    fn sizes_and_structure() {
        for (n, nodes) in [(20, 2), (50, 4), (100, 6)] {
            let config = GeneratorConfig::new(n, nodes);
            let app = generate_application(&config, 1).unwrap();
            assert_eq!(app.process_count(), n);
            assert_eq!(app.node_count(), nodes);
            assert!(app.message_count() > 0, "graphs are connected enough to be interesting");
            assert_eq!(app.topological_order().len(), n);
        }
    }

    #[test]
    fn every_process_has_a_home_node() {
        let config = GeneratorConfig { mappable_fraction: 0.0, ..GeneratorConfig::new(25, 4) };
        let app = generate_application(&config, 3).unwrap();
        for (_, p) in app.processes() {
            assert_eq!(p.candidate_nodes().count(), 1, "only the home node is feasible");
        }
    }

    #[test]
    fn overheads_are_fractions_of_wcet() {
        let config = GeneratorConfig::new(40, 3);
        let app = generate_application(&config, 11).unwrap();
        for (_, p) in app.processes() {
            let min_wcet = p.candidate_nodes().filter_map(|n| p.wcet_on(n)).min().unwrap();
            assert!(p.alpha() <= min_wcet, "α below the WCET");
            assert!(!p.mu().is_negative() && !p.chi().is_negative());
        }
    }

    #[test]
    fn deadline_scales_with_load() {
        let small = generate_application(&GeneratorConfig::new(20, 2), 5).unwrap();
        let large = generate_application(&GeneratorConfig::new(100, 2), 5).unwrap();
        assert!(large.deadline() > small.deadline());
    }

    #[test]
    fn zero_nodes_is_an_error_not_a_panic() {
        let err = generate_application(&GeneratorConfig::new(4, 0), 1).unwrap_err();
        assert_eq!(err, ModelError::NoFeasibleNode(ProcessId::new(0)));
    }

    #[test]
    fn layer_override_is_respected() {
        let config = GeneratorConfig { layers: Some(2), ..GeneratorConfig::new(10, 2) };
        let app = generate_application(&config, 9).unwrap();
        // With two layers every edge goes layer 0 -> layer 1, so receivers
        // are sinks.
        for (_, m) in app.messages() {
            assert!(app.successors(m.dst()).is_empty(), "two layers => sinks receive");
        }
    }
}

//! Seeded random AIG generation — netlist-shaped stimulus for the cone
//! pipeline's tests, the scaling scenarios, and the CI experiment fixtures.

use lr_bv::Rng;

use crate::{Aig, AndGate, Latch, Lit, Output};

/// This crate's seed transform: every stream it draws is `Rng::new(seed ^
/// STREAM_SALT)`, which keeps the committed fixtures' streams unchanged.
pub(crate) const STREAM_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Shape of a generated netlist.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Primary input count (at least 1).
    pub inputs: u32,
    /// Latch count.
    pub latches: u32,
    /// AND gate count.
    pub ands: u32,
    /// Primary output count (at least 1).
    pub outputs: u32,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig { inputs: 8, latches: 2, ands: 64, outputs: 4 }
    }
}

/// Generates a random, valid AIG. The same `(seed, config)` pair always yields
/// the same netlist.
///
/// Gate operands are biased toward recent gates so the graph grows deep (real
/// netlists are chains, not shallow fans), and outputs observe the latest gates
/// so most of the graph stays live.
pub fn random_aig(seed: u64, config: &GenConfig) -> Aig {
    let inputs = config.inputs.max(1);
    let outputs = config.outputs.max(1);
    let mut rng = Rng::new(seed ^ STREAM_SALT);
    let first_and = 1 + inputs + config.latches;

    let mut ands = Vec::with_capacity(config.ands as usize);
    for k in 0..config.ands {
        // Combinational operands: anything defined before this gate, minus the
        // constant. Bias half the draws toward the most recent quarter.
        let operand = |rng: &mut Rng| {
            let defined = first_and + k; // vars 1..defined are usable
            let var = if k > 0 && rng.bool() {
                let recent = (k / 4 + 1).min(k);
                first_and + k - 1 - rng.below(u64::from(recent)) as u32
            } else {
                1 + rng.below(u64::from(defined - 1)) as u32
            };
            Lit::new(var, rng.bool())
        };
        ands.push(AndGate { rhs0: operand(&mut rng), rhs1: operand(&mut rng) });
    }

    // Latch next-state and outputs may observe any variable, ANDs included.
    let total = first_and + config.ands;
    let any_lit = |rng: &mut Rng| Lit::new(1 + rng.below(u64::from(total - 1)) as u32, rng.bool());
    let latches =
        (0..config.latches).map(|_| Latch { next: any_lit(&mut rng), init: rng.bool() }).collect();
    let outs = (0..outputs)
        .map(|k| {
            // Observe the tail of the gate list so the bulk of the graph is in
            // some output's cone of influence.
            let lit = if config.ands > 0 {
                let tail = (config.ands / 2 + 1).min(config.ands);
                Lit::new(total - 1 - rng.below(u64::from(tail)) as u32, rng.bool())
            } else {
                any_lit(&mut rng)
            };
            Output { name: format!("o{k}"), lit }
        })
        .collect();

    let names = (0..inputs).map(|i| format!("i{i}")).collect();
    Aig::new(format!("rand_{seed:016x}"), names, latches, ands, outs)
        .expect("generated AIGs are valid by construction")
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    #[test]
    fn generation_is_reproducible_and_valid() {
        let config = GenConfig { inputs: 6, latches: 3, ands: 200, outputs: 5 };
        let a = random_aig(42, &config);
        let b = random_aig(42, &config);
        assert_eq!(a, b);
        assert_eq!(a.num_ands(), 200);
        assert_eq!(a.num_latches(), 3);
        let c = random_aig(43, &config);
        assert_ne!(a, c, "different seeds give different netlists");
    }

    #[test]
    fn the_salt_seed_is_not_degenerate() {
        // `STREAM_SALT ^ STREAM_SALT` is xorshift's absorbing state 0; the
        // shared generator remaps it, so this seed yields a live netlist rather
        // than one whose every operand draw is zero.
        let config = GenConfig::default();
        let aig = random_aig(STREAM_SALT, &config);
        assert_ne!(aig, random_aig(STREAM_SALT ^ 1, &config));
        let operands: BTreeSet<u32> =
            aig.ands().iter().flat_map(|g| [g.rhs0.var(), g.rhs1.var()]).collect();
        assert!(operands.len() > 8, "operands collapsed onto {operands:?}");
    }

    #[test]
    fn generated_netlists_simulate_and_round_trip() {
        for seed in 0..8 {
            let aig = random_aig(seed, &GenConfig::default());
            let mut rng = Rng::new(seed ^ 0xDEAD ^ STREAM_SALT);
            let stimulus: Vec<Vec<bool>> =
                (0..4).map(|_| (0..aig.num_inputs()).map(|_| rng.bool()).collect()).collect();
            let sim = aig.simulate(&stimulus);
            assert_eq!(sim.len(), 4);
            // Writers stay in sync with the generator.
            let ascii = crate::parse::parse_aag(&aig.to_aag()).unwrap();
            assert_eq!(ascii.simulate(&stimulus), sim);
            let binary = crate::parse::parse_aig_binary(&aig.to_aig_binary()).unwrap();
            assert_eq!(binary.simulate(&stimulus), sim);
        }
    }
}

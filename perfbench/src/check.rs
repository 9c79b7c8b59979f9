//! Output checks that do not trust the mapper: a mapped design is compared
//! with its behavioral spec by `lr_ir` interpretation on the benchmark's own
//! seeded stimulus, and a stitched netlist is compared with `Aig::simulate`.

use lr_aig::Aig;
use lr_bv::BitVec;
use lr_ir::{Prog, StreamInputs};

use crate::util::Rng;

/// Environments per DSP-design check.
const DSP_ENVS: usize = 8;
/// Environments and cycles per netlist check.
const NETLIST_ENVS: usize = 4;
const NETLIST_CYCLES: usize = 6;

fn random_bv(rng: &mut Rng, width: u32) -> BitVec {
    let words = [rng.next_u64(), rng.next_u64()];
    let value = u128::from(words[0]) | (u128::from(words[1]) << 64);
    BitVec::from_u128(if width >= 128 { value } else { value & ((1u128 << width) - 1) }, width)
}

/// Checks that `candidate` equals `spec` at every cycle of the window
/// `t..=t + bmc_window`, where `t` is the spec's pipeline depth, on seeded
/// random input streams. Both programs must read the same inputs.
pub fn equal_over_window(
    spec: &Prog,
    candidate: &Prog,
    bmc_window: u32,
    seed: u64,
) -> Result<(), String> {
    let inputs = spec.free_vars();
    let theirs = candidate.free_vars();
    if let Some((name, _)) = theirs.iter().find(|v| !inputs.contains(v)) {
        return Err(format!("reads input `{name}` the spec does not have"));
    }
    let t = lakeroad::pipeline_depth(spec);
    let mut rng = Rng::stream(seed, spec.name());
    for _ in 0..DSP_ENVS {
        let mut env = StreamInputs::new();
        for (name, width) in &inputs {
            env.set_trace(
                name.clone(),
                (0..=t + bmc_window).map(|_| random_bv(&mut rng, *width)).collect(),
            );
        }
        for cycle in t..=t + bmc_window {
            let want = spec.interp(&env, cycle).map_err(|e| format!("spec: {e}"))?;
            let got = candidate.interp(&env, cycle).map_err(|e| format!("candidate: {e}"))?;
            if want != got {
                return Err(format!("differs at cycle {cycle}: want {want:?}, got {got:?}"));
            }
        }
    }
    Ok(())
}

/// Checks a stitched implementation against bit-level simulation of the AIG
/// it came from.
pub fn netlist_matches(aig: &Aig, implementation: &Prog, seed: u64) -> Result<(), String> {
    let mut rng = Rng::stream(seed, aig.name());
    for _ in 0..NETLIST_ENVS {
        let stimulus: Vec<Vec<bool>> = (0..NETLIST_CYCLES)
            .map(|_| (0..aig.num_inputs()).map(|_| rng.next_u64() & 1 == 1).collect())
            .collect();
        let expected = aig.simulate(&stimulus);
        let mut env = StreamInputs::new();
        for (i, name) in aig.input_names().iter().enumerate() {
            env.set_trace(name.clone(), stimulus.iter().map(|s| BitVec::from_bool(s[i])).collect());
        }
        let got = implementation
            .interp_trace(&env, NETLIST_CYCLES as u32 - 1)
            .map_err(|e| format!("implementation does not interpret: {e}"))?;
        for (cycle, want) in expected.iter().enumerate() {
            for (bit, &w) in want.iter().enumerate() {
                if got[cycle].bit(bit as u32) != w {
                    return Err(format!("output bit {bit} differs at cycle {cycle}"));
                }
            }
        }
    }
    Ok(())
}

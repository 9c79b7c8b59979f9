//! The truth-table path against CEGIS, its reference: on random AIG cones
//! across every architecture, the INIT read off a cone's truth table and the
//! INIT CEGIS synthesizes on the same sketch must compute the same function on
//! every input point and agree on every INIT bit a tied-off pin cannot mask.
//! Bitwise jobs outside the single-LUT shape must still reach CEGIS.

use std::collections::BTreeMap;
use std::time::Duration;

use lakeroad::{
    generate_sketch, map_design, truth_table_holes, MapConfig, Template, TRUTH_TABLE_SOLVER,
};
use lr_aig::{partition, random_aig, ConeOptions, GenConfig};
use lr_arch::Architecture;
use lr_bv::BitVec;
use lr_ir::{BvOp, Prog, ProgBuilder, StreamInputs};
use lr_synth::{synthesize, SynthesisConfig, SynthesisOutcome, SynthesisTask};

const CONES_PER_ARCH: usize = 50;

/// The value of a one-bit program over `x0..xK` on every input point, as a
/// truth table (bit `p` is the output when `x<i>` carries bit `i` of `p`).
fn truth_table(prog: &Prog, k: u32) -> u64 {
    (0..1u64 << k).fold(0, |truth, point| {
        let env = StreamInputs::from_constants(
            (0..k).map(|i| (format!("x{i}"), BitVec::from_u64(point >> i, 1))),
        );
        let bit = !prog.interp(&env, 0).expect("hole-free, bound").is_zero();
        truth | u64::from(bit) << point
    })
}

fn fill(sketch: &Prog, holes: &BTreeMap<String, BitVec>) -> Prog {
    sketch.fill_holes(holes).expect("assignment fits the sketch").simplified()
}

#[test]
fn truth_table_luts_agree_with_cegis_luts_on_random_cones() {
    let synth_config =
        SynthesisConfig { timeout: Some(Duration::from_secs(60)), ..SynthesisConfig::default() };
    let mut checked = 0;
    for (a, arch) in Architecture::all().into_iter().enumerate() {
        let options = ConeOptions { max_leaves: arch.lut_size() as usize, max_ands: 32 };
        let mut cones = Vec::new();
        let mut seed = 0x7ab1e_0000 + a as u64 * 1000;
        while cones.len() < CONES_PER_ARCH {
            let aig = random_aig(seed, &GenConfig { inputs: 7, latches: 2, ands: 40, outputs: 3 });
            cones.extend(partition(&aig, &options).cones);
            seed += 1;
        }
        for cone in cones.iter().take(CONES_PER_ARCH) {
            let name = format!("{} cone_v{}", arch.name(), cone.root);
            let spec = cone.spec.saturated();
            let k = spec.free_vars().len() as u32;
            let sketch = generate_sketch(Template::Bitwise, &arch, &spec).unwrap();
            let table = truth_table_holes(&spec, &sketch, &arch)
                .unwrap_or_else(|| panic!("{name}: a <=K-leaf cone has the single-LUT shape"));
            let task = SynthesisTask::at(&spec, &sketch, 0);
            let synthesized = match synthesize(&task, &synth_config).unwrap() {
                SynthesisOutcome::Success(s) => s,
                other => panic!("{name}: CEGIS did not map a one-LUT cone: {other:?}"),
            };
            assert!(synthesized.stats.iterations > 0, "{name}: CEGIS ran no iteration");

            // Same function on every point, and the spec's.
            let want = truth_table(&spec, k);
            assert_eq!(truth_table(&fill(&sketch, &table), k), want, "{name}: truth-table LUT");
            assert_eq!(
                truth_table(&fill(&sketch, &synthesized.hole_assignment), k),
                want,
                "{name}: CEGIS LUT"
            );

            // Same INIT on every care bit; the truth table leaves the rest 0.
            let care = arch.lut_init(u64::MAX >> (64 - (1u32 << k)), k);
            let [(hole, tt_init)] = table.iter().collect::<Vec<_>>()[..] else {
                panic!("{name}: one LUT, one hole")
            };
            let cegis_init = &synthesized.hole_assignment[hole];
            assert_eq!(tt_init.and(&care), cegis_init.and(&care), "{name}: INIT care bits");
            assert_eq!(tt_init.and(&care.not()), BitVec::zeros(care.width()), "{name}");
            checked += 1;
        }
    }
    assert!(checked >= 200, "only {checked} cones compared");
}

fn quick_config() -> MapConfig {
    MapConfig::single_solver().with_timeout(Duration::from_secs(60))
}

/// A multi-bit Bitwise job is several LUTs: it goes to CEGIS.
#[test]
fn multi_bit_bitwise_jobs_still_run_cegis() {
    let mut b = ProgBuilder::new("xor2");
    let a = b.input("a", 2);
    let x = b.input("b", 2);
    let out = b.op2(BvOp::Xor, a, x);
    let spec = b.finish(out);
    let outcome = map_design(&spec, Template::Bitwise, &Architecture::sofa(), &quick_config())
        .expect("the sketch generates");
    let mapped = outcome.success().expect("xor maps onto LUTs");
    assert_ne!(mapped.stats.solver_name, TRUTH_TABLE_SOLVER);
    assert!(mapped.iterations > 0, "{:?}", mapped.stats);
}

/// A registered one-bit spec is not a function of the current inputs: it
/// goes to CEGIS, whatever the verdict.
#[test]
fn registered_bitwise_jobs_still_run_cegis() {
    let mut b = ProgBuilder::new("reg_and");
    let a = b.input("x0", 1);
    let x = b.input("x1", 1);
    let and = b.op2(BvOp::And, a, x);
    let out = b.reg(and, 1);
    let spec = b.finish(out);
    let outcome =
        map_design(&spec, Template::Bitwise, &Architecture::intel_cyclone10lp(), &quick_config())
            .expect("the sketch generates");
    assert_ne!(outcome.stats().solver_name, TRUTH_TABLE_SOLVER);
    assert!(outcome.stats().iterations > 0, "{:?}", outcome.stats());
}

/// A single-LUT cone takes the truth-table path: no CEGIS iteration, and a
/// mapping that matches the spec on every point.
#[test]
fn single_lut_bitwise_jobs_take_the_truth_table_path() {
    let mut b = ProgBuilder::new("mux");
    let s = b.input("x0", 1);
    let t = b.input("x1", 1);
    let e = b.input("x2", 1);
    let out = b.mux(s, t, e);
    let spec = b.finish(out);
    for arch in Architecture::all() {
        let outcome = map_design(&spec, Template::Bitwise, &arch, &quick_config()).unwrap();
        let mapped = outcome.success().expect("a mux is one LUT");
        assert_eq!(mapped.stats.solver_name, TRUTH_TABLE_SOLVER, "{}", arch.name());
        assert_eq!(mapped.iterations, 0);
        assert_eq!(mapped.resources.logic_elements, 1);
        assert_eq!(truth_table(&mapped.implementation, 3), truth_table(&spec, 3));
    }
}

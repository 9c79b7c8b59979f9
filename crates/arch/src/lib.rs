//! # lr-arch: primitive interfaces, architecture descriptions, and primitive models
//!
//! This crate is Lakeroad's "input 2 and input 3" (Figure 1 of the paper): the short
//! per-architecture description that lists which primitives an FPGA family provides,
//! and the solver-ready semantics of those primitives.
//!
//! * [`Architecture`] wraps one of the four shipped architecture descriptions
//!   (Xilinx UltraScale+, Lattice ECP5, Intel Cyclone 10 LP, SOFA), parsed from YAML
//!   by the in-tree [`yaml`] parser.
//! * [`primitives`] holds the primitive semantic models; simple primitives are
//!   extracted from mini-HDL models via `lr-hdl`, the two big DSPs are built
//!   programmatically.
//! * [`Architecture::instantiate_dsp`] / [`Architecture::instantiate_lut`] are the
//!   hooks the sketch generator (`lr-sketch`) uses to specialize its
//!   architecture-independent templates: they create the primitive instance, its
//!   holes, and the port-selection logic, and return the resulting node.

pub mod descriptions;
pub mod primitives;
pub mod yaml;

use lr_bv::BitVec;
use lr_ir::{BvOp, HoleDomain, NodeId, PrimInstance, ProgBuilder};

use yaml::{parse_yaml, Yaml};

/// The FPGA architectures shipped with the tool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchName {
    /// Xilinx UltraScale+ (DSP48E2, LUT6, CARRY8).
    XilinxUltraScalePlus,
    /// Lattice ECP5 (MULT18X18C + ALU54A, LUT4/LUT2, CCU2C).
    LatticeEcp5,
    /// Intel Cyclone 10 LP (cyclone10lp_mac_mult, LUT4).
    IntelCyclone10Lp,
    /// SOFA, the open-source FPGA (frac_lut4 only; no DSP).
    Sofa,
}

impl std::fmt::Display for ArchName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ArchName::XilinxUltraScalePlus => "Xilinx UltraScale+",
            ArchName::LatticeEcp5 => "Lattice ECP5",
            ArchName::IntelCyclone10Lp => "Intel Cyclone 10 LP",
            ArchName::Sofa => "SOFA",
        };
        write!(f, "{s}")
    }
}

/// The result of instantiating a DSP primitive interface into a sketch under
/// construction.
#[derive(Debug, Clone)]
pub struct DspInstantiation {
    /// The primitive node (its value is the DSP's full-width output).
    pub node: NodeId,
    /// Width of the DSP's output port.
    pub output_width: u32,
    /// Names of the holes created for this instance.
    pub holes: Vec<String>,
    /// The concrete module name instantiated (for reports and emission).
    pub module: String,
}

/// An FPGA architecture: its description plus programmatic access to its primitives.
#[derive(Debug, Clone)]
pub struct Architecture {
    name: ArchName,
    description: &'static str,
    parsed: Yaml,
}

impl Architecture {
    /// Loads the Xilinx UltraScale+ architecture.
    pub fn xilinx_ultrascale_plus() -> Self {
        Self::load(ArchName::XilinxUltraScalePlus)
    }

    /// Loads the Lattice ECP5 architecture.
    pub fn lattice_ecp5() -> Self {
        Self::load(ArchName::LatticeEcp5)
    }

    /// Loads the Intel Cyclone 10 LP architecture.
    pub fn intel_cyclone10lp() -> Self {
        Self::load(ArchName::IntelCyclone10Lp)
    }

    /// Loads the SOFA architecture.
    pub fn sofa() -> Self {
        Self::load(ArchName::Sofa)
    }

    /// Loads an architecture by name.
    pub fn load(name: ArchName) -> Self {
        let description = match name {
            ArchName::XilinxUltraScalePlus => descriptions::XILINX_ULTRASCALE_PLUS,
            ArchName::LatticeEcp5 => descriptions::LATTICE_ECP5,
            ArchName::IntelCyclone10Lp => descriptions::INTEL_CYCLONE10LP,
            ArchName::Sofa => descriptions::SOFA,
        };
        let parsed = parse_yaml(description).expect("shipped architecture descriptions parse");
        Architecture { name, description, parsed }
    }

    /// All four shipped architectures.
    pub fn all() -> Vec<Architecture> {
        vec![
            Self::xilinx_ultrascale_plus(),
            Self::lattice_ecp5(),
            Self::intel_cyclone10lp(),
            Self::sofa(),
        ]
    }

    /// The three architectures with a DSP (used by the completeness experiment).
    pub fn with_dsps() -> Vec<Architecture> {
        vec![Self::xilinx_ultrascale_plus(), Self::lattice_ecp5(), Self::intel_cyclone10lp()]
    }

    /// The architecture's name.
    pub fn name(&self) -> ArchName {
        self.name
    }

    /// The raw YAML architecture description text.
    pub fn description_text(&self) -> &str {
        self.description
    }

    /// Source lines of code of the architecture description (the §5.2 metric).
    pub fn description_sloc(&self) -> usize {
        lr_hdl::count_sloc(self.description)
    }

    /// The parsed YAML document.
    pub fn description_yaml(&self) -> &Yaml {
        &self.parsed
    }

    /// The interface implementations listed in the description.
    pub fn implementations(&self) -> &[Yaml] {
        self.parsed.get("implementations").and_then(Yaml::as_list).unwrap_or(&[])
    }

    /// The LUT size this architecture provides.
    pub fn lut_size(&self) -> u32 {
        self.parsed.get("lut_size").and_then(Yaml::as_int).unwrap_or(4) as u32
    }

    /// Whether the architecture provides a DSP.
    pub fn has_dsp(&self) -> bool {
        self.dsp_module().is_some()
    }

    /// The concrete module name of the architecture's DSP, if any.
    pub fn dsp_module(&self) -> Option<&'static str> {
        match self.name {
            ArchName::XilinxUltraScalePlus => Some("DSP48E2"),
            ArchName::LatticeEcp5 => Some("MULT18X18C_ALU54A"),
            ArchName::IntelCyclone10Lp => Some("cyclone10lp_mac_mult"),
            ArchName::Sofa => None,
        }
    }

    /// The DSP output width, if the architecture has a DSP.
    pub fn dsp_output_width(&self) -> Option<u32> {
        match self.name {
            ArchName::XilinxUltraScalePlus => Some(primitives::DSP48E2_OUT_WIDTH),
            ArchName::LatticeEcp5 => Some(primitives::ECP5_DSP_OUT_WIDTH),
            ArchName::IntelCyclone10Lp => Some(primitives::CYCLONE10_OUT_WIDTH),
            ArchName::Sofa => None,
        }
    }

    /// The widest data operand the DSP's multiplier accepts (18 bits on all three
    /// DSP-bearing architectures; the paper's microbenchmarks stop at 18 bits for the
    /// same reason).
    pub fn dsp_max_operand_width(&self) -> Option<u32> {
        if self.has_dsp() {
            Some(18)
        } else {
            None
        }
    }

    /// Whether the DSP has a pre-adder (only the DSP48E2 does), i.e. whether designs
    /// of the form `(a ± b) * c` fit in one DSP.
    pub fn dsp_has_preadder(&self) -> bool {
        self.name == ArchName::XilinxUltraScalePlus
    }

    /// Whether the DSP has a post-ALU (DSP48E2 and ECP5), i.e. whether designs of the
    /// form `(a * b) ⊙ c` fit in one DSP.
    pub fn dsp_has_post_alu(&self) -> bool {
        matches!(self.name, ArchName::XilinxUltraScalePlus | ArchName::LatticeEcp5)
    }

    /// Instantiates the architecture's DSP into a sketch under construction.
    ///
    /// `design_inputs` are the design's input nodes (already created in `builder`);
    /// each DSP data port is driven by a hole-selected multiplexer over those inputs
    /// (or zero), so the solver chooses the port assignment. Returns `None` if the
    /// architecture has no DSP.
    ///
    /// `instance_index` must be unique per primitive instance within one sketch; it
    /// is used both for hole-name prefixes and to keep semantics node ids disjoint.
    pub fn instantiate_dsp(
        &self,
        builder: &mut ProgBuilder,
        design_inputs: &[(String, NodeId, u32)],
        instance_index: usize,
    ) -> Option<DspInstantiation> {
        let prefix = format!("dsp{instance_index}");
        let offset = semantics_id_offset(instance_index);
        let mut holes = Vec::new();
        match self.name {
            ArchName::XilinxUltraScalePlus => {
                let semantics = primitives::dsp48e2_semantics().with_id_offset(offset);
                let a = select_input(builder, design_inputs, 30, &prefix, "A_SEL", &mut holes);
                let b = select_input(builder, design_inputs, 18, &prefix, "B_SEL", &mut holes);
                let c = select_input(builder, design_inputs, 48, &prefix, "C_SEL", &mut holes);
                let d = select_input(builder, design_inputs, 27, &prefix, "D_SEL", &mut holes);
                let mut bindings = std::collections::BTreeMap::new();
                bindings.insert("A".to_string(), a);
                bindings.insert("B".to_string(), b);
                bindings.insert("C".to_string(), c);
                bindings.insert("D".to_string(), d);
                for (name, width) in [
                    ("CARRYIN", 1),
                    ("INMODE", 5),
                    ("OPMODE", 9),
                    ("ALUMODE", 4),
                    ("AREG", 1),
                    ("BREG", 1),
                    ("CREG", 1),
                    ("DREG", 1),
                    ("ADREG", 1),
                    ("MREG", 1),
                    ("PREG", 1),
                    ("AMULTSEL", 1),
                ] {
                    let hole_name = format!("{prefix}.{name}");
                    let h = builder.hole(&hole_name, width, HoleDomain::AnyConstant);
                    bindings.insert(name.to_string(), h);
                    holes.push(hole_name);
                }
                let prim = PrimInstance {
                    module: "DSP48E2".to_string(),
                    interface: "DSP".to_string(),
                    bindings,
                    semantics,
                    param_names: vec![
                        "AREG".into(),
                        "BREG".into(),
                        "CREG".into(),
                        "DREG".into(),
                        "ADREG".into(),
                        "MREG".into(),
                        "PREG".into(),
                        "AMULTSEL".into(),
                    ],
                    output_port: "P".to_string(),
                };
                let node = builder.prim(prim);
                Some(DspInstantiation {
                    node,
                    output_width: primitives::DSP48E2_OUT_WIDTH,
                    holes,
                    module: "DSP48E2".to_string(),
                })
            }
            ArchName::LatticeEcp5 => {
                let semantics = primitives::ecp5_dsp_semantics().with_id_offset(offset);
                let a = select_input(builder, design_inputs, 18, &prefix, "A_SEL", &mut holes);
                let b = select_input(builder, design_inputs, 18, &prefix, "B_SEL", &mut holes);
                let c = select_input(builder, design_inputs, 54, &prefix, "C_SEL", &mut holes);
                let mut bindings = std::collections::BTreeMap::new();
                bindings.insert("A".to_string(), a);
                bindings.insert("B".to_string(), b);
                bindings.insert("C".to_string(), c);
                for (name, width, domain) in [
                    ("REG_INPUT", 1, HoleDomain::AnyConstant),
                    ("REG_C", 1, HoleDomain::AnyConstant),
                    ("REG_PIPE", 1, HoleDomain::AnyConstant),
                    ("REG_OUTPUT", 1, HoleDomain::AnyConstant),
                    ("ALU_OP", 3, HoleDomain::LessThan(BitVec::from_u64(7, 3))),
                ] {
                    let hole_name = format!("{prefix}.{name}");
                    let h = builder.hole(&hole_name, width, domain);
                    bindings.insert(name.to_string(), h);
                    holes.push(hole_name);
                }
                let prim = PrimInstance {
                    module: "MULT18X18C_ALU54A".to_string(),
                    interface: "DSP".to_string(),
                    bindings,
                    semantics,
                    param_names: vec![
                        "REG_INPUT".into(),
                        "REG_C".into(),
                        "REG_PIPE".into(),
                        "REG_OUTPUT".into(),
                        "ALU_OP".into(),
                    ],
                    output_port: "R".to_string(),
                };
                let node = builder.prim(prim);
                Some(DspInstantiation {
                    node,
                    output_width: primitives::ECP5_DSP_OUT_WIDTH,
                    holes,
                    module: "MULT18X18C_ALU54A".to_string(),
                })
            }
            ArchName::IntelCyclone10Lp => {
                let semantics = primitives::cyclone10_mac_mult_semantics().with_id_offset(offset);
                let a = select_input(builder, design_inputs, 18, &prefix, "A_SEL", &mut holes);
                let b = select_input(builder, design_inputs, 18, &prefix, "B_SEL", &mut holes);
                let mut bindings = std::collections::BTreeMap::new();
                bindings.insert("dataa".to_string(), a);
                bindings.insert("datab".to_string(), b);
                for name in ["REGISTER_A", "REGISTER_B", "REGISTER_OUT"] {
                    let hole_name = format!("{prefix}.{name}");
                    let h = builder.hole(&hole_name, 1, HoleDomain::AnyConstant);
                    bindings.insert(name.to_string(), h);
                    holes.push(hole_name);
                }
                let prim = PrimInstance {
                    module: "cyclone10lp_mac_mult".to_string(),
                    interface: "DSP".to_string(),
                    bindings,
                    semantics,
                    param_names: vec![
                        "REGISTER_A".into(),
                        "REGISTER_B".into(),
                        "REGISTER_OUT".into(),
                    ],
                    output_port: "dataout".to_string(),
                };
                let node = builder.prim(prim);
                Some(DspInstantiation {
                    node,
                    output_width: primitives::CYCLONE10_OUT_WIDTH,
                    holes,
                    module: "cyclone10lp_mac_mult".to_string(),
                })
            }
            ArchName::Sofa => None,
        }
    }

    /// Instantiates one LUT of this architecture, driven by the given 1-bit input
    /// nodes (missing inputs are tied to zero). Creates a fresh `INIT`/`sram` hole and
    /// returns the LUT's 1-bit output node.
    pub fn instantiate_lut(
        &self,
        builder: &mut ProgBuilder,
        inputs: &[NodeId],
        instance_index: usize,
    ) -> NodeId {
        let size = self.lut_size();
        assert!(
            inputs.len() as u32 <= size,
            "LUT{size} cannot take {} inputs on {}",
            inputs.len(),
            self.name
        );
        let offset = semantics_id_offset(instance_index);
        let zero1 = builder.constant_u64(0, 1);
        let padded: Vec<NodeId> =
            (0..size as usize).map(|i| inputs.get(i).copied().unwrap_or(zero1)).collect();
        let init_width = 1u32 << size;
        let hole_name = format!("lut{instance_index}.INIT");
        let init = builder.hole(&hole_name, init_width, HoleDomain::AnyConstant);

        let mut bindings = std::collections::BTreeMap::new();
        let (module, semantics, output_port, param_name) = match self.name {
            ArchName::XilinxUltraScalePlus => {
                let sem = primitives::lut_semantics(6).with_id_offset(offset);
                for (i, &node) in padded.iter().enumerate() {
                    bindings.insert(format!("I{i}"), node);
                }
                ("LUT6", sem, "O", "INIT")
            }
            ArchName::LatticeEcp5 | ArchName::IntelCyclone10Lp => {
                let sem = primitives::lut_semantics(4).with_id_offset(offset);
                for (name, &node) in ["A", "B", "C", "D"].iter().zip(&padded) {
                    bindings.insert(name.to_string(), node);
                }
                ("LUT4", sem, "Z", "INIT")
            }
            ArchName::Sofa => {
                let sem = primitives::frac_lut4_semantics().with_id_offset(offset);
                // frac_lut4 takes its four inputs as a single 4-bit bus plus a mode pin.
                let i10 = builder.op2(BvOp::Concat, padded[1], padded[0]);
                let i32_ = builder.op2(BvOp::Concat, padded[3], padded[2]);
                let bus = builder.op2(BvOp::Concat, i32_, i10);
                bindings.insert("in".to_string(), bus);
                bindings.insert("mode".to_string(), zero1);
                ("frac_lut4", sem, "lut4_out", "sram")
            }
        };
        bindings.insert(param_name.to_string(), init);
        let prim = PrimInstance {
            module: module.to_string(),
            interface: format!("LUT{size}"),
            bindings,
            semantics,
            param_names: vec![param_name.to_string()],
            output_port: output_port.to_string(),
        };
        builder.prim(prim)
    }

    /// The INIT (`sram` on SOFA) value that makes a LUT from
    /// [`Architecture::instantiate_lut`] over `inputs` input nodes compute the
    /// truth table `truth`: bit `p` of `truth` is the output when input `i`
    /// carries bit `i` of `p`. Pins past `inputs` are tied to zero, so the INIT
    /// bits they select are 0.
    ///
    /// # Panics
    /// Panics if `inputs` exceeds the LUT size.
    pub fn lut_init(&self, truth: u64, inputs: u32) -> BitVec {
        let size = self.lut_size();
        assert!(inputs <= size, "LUT{size} cannot take {inputs} inputs on {}", self.name);
        // Input i drives select bit i on every model `instantiate_lut` binds:
        // LUT6 reads INIT[{I5..I0}], LUT4 INIT[{D, C, B, A}] and frac_lut4
        // sram[in] with input i on `in[i]`. So point p selects INIT bit p.
        (0..1u64 << inputs)
            .filter(|point| truth >> point & 1 == 1)
            .fold(BitVec::zeros(1 << size), |init, point| init.with_bit(point as u32, true))
    }
}

/// Reserves a disjoint node-id region for the semantics sub-program of the
/// `instance_index`-th primitive in a sketch. Outer sketch programs are tiny
/// (well under a million nodes), so regions starting at one million never collide.
fn semantics_id_offset(instance_index: usize) -> u32 {
    1_000_000 + (instance_index as u32) * 100_000
}

/// Builds a hole-selected multiplexer that drives a primitive data port from one of
/// the design's inputs (or constant zero), zero-extended to the port width.
fn select_input(
    builder: &mut ProgBuilder,
    design_inputs: &[(String, NodeId, u32)],
    port_width: u32,
    prefix: &str,
    hole_suffix: &str,
    holes: &mut Vec<String>,
) -> NodeId {
    let mut options: Vec<NodeId> = vec![builder.constant_u64(0, port_width)];
    for (_, node, width) in design_inputs {
        let resized = if *width == port_width {
            *node
        } else if *width < port_width {
            builder.zext(*node, port_width)
        } else {
            builder.extract(*node, port_width - 1, 0)
        };
        options.push(resized);
    }
    if options.len() == 1 {
        return options[0];
    }
    let bits = (usize::BITS - (options.len() - 1).leading_zeros()).max(1);
    let hole_name = format!("{prefix}.{hole_suffix}");
    // When the option count fills the selector width exactly, every selector value is
    // legal; otherwise restrict to the populated range (the bound fits in `bits`
    // because the count is then strictly below 2^bits).
    let domain = if options.len() == (1usize << bits) {
        HoleDomain::AnyConstant
    } else {
        HoleDomain::LessThan(BitVec::from_u64(options.len() as u64, bits))
    };
    let sel = builder.hole(&hole_name, bits, domain);
    holes.push(hole_name);
    // options[k] selected when sel == k; nested if-then-else chain.
    let mut result = options[0];
    for (k, &opt) in options.iter().enumerate().skip(1) {
        let kc = builder.constant_u64(k as u64, bits);
        let is_k = builder.op2(BvOp::Eq, sel, kc);
        result = builder.mux(is_k, opt, result);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_ir::StreamInputs;
    use std::collections::BTreeMap;

    #[test]
    fn all_architecture_descriptions_parse_and_report_sloc() {
        let archs = Architecture::all();
        assert_eq!(archs.len(), 4);
        for arch in &archs {
            assert!(arch.description_sloc() > 5, "{} description too small", arch.name());
            assert!(!arch.implementations().is_empty(), "{} lists no implementations", arch.name());
        }
        // SOFA is the smallest description, as in the paper.
        let sofa = Architecture::sofa();
        for other in Architecture::with_dsps() {
            assert!(sofa.description_sloc() < other.description_sloc());
        }
    }

    #[test]
    fn dsp_capability_matrix_matches_the_paper() {
        assert!(Architecture::xilinx_ultrascale_plus().has_dsp());
        assert!(Architecture::lattice_ecp5().has_dsp());
        assert!(Architecture::intel_cyclone10lp().has_dsp());
        assert!(!Architecture::sofa().has_dsp());
        assert!(Architecture::xilinx_ultrascale_plus().dsp_has_preadder());
        assert!(!Architecture::lattice_ecp5().dsp_has_preadder());
        assert!(Architecture::lattice_ecp5().dsp_has_post_alu());
        assert!(!Architecture::intel_cyclone10lp().dsp_has_post_alu());
        assert_eq!(Architecture::xilinx_ultrascale_plus().lut_size(), 6);
        assert_eq!(Architecture::sofa().lut_size(), 4);
    }

    #[test]
    fn dsp_instantiation_produces_a_well_formed_sketch() {
        for arch in Architecture::with_dsps() {
            let mut b = ProgBuilder::new("sketch");
            let mut inputs = Vec::new();
            for name in ["a", "b", "c", "d"] {
                let id = b.input(name, 8);
                inputs.push((name.to_string(), id, 8));
            }
            let dsp = arch.instantiate_dsp(&mut b, &inputs, 0).expect("has a DSP");
            let out = b.extract(dsp.node, 7, 0);
            let sketch = b.finish(out);
            assert!(sketch.well_formed().is_ok(), "{}: {:?}", arch.name(), sketch.well_formed());
            assert!(sketch.has_holes(), "{} sketch should carry holes", arch.name());
            assert!(!dsp.holes.is_empty());
            assert!(sketch.holes().len() >= dsp.holes.len());
        }
    }

    #[test]
    fn xilinx_dsp_sketch_can_express_the_running_example_when_filled() {
        // Fill the holes by hand with the configuration computing ((a+b)*c)&d and
        // check it against direct evaluation. Port muxes: D <- a (sel 1), A <- b
        // (sel 2), B <- c (sel 3), C <- d (sel 4).
        let arch = Architecture::xilinx_ultrascale_plus();
        let mut b = ProgBuilder::new("sketch");
        let mut inputs = Vec::new();
        for name in ["a", "b", "c", "d"] {
            let id = b.input(name, 8);
            inputs.push((name.to_string(), id, 8));
        }
        let dsp = arch.instantiate_dsp(&mut b, &inputs, 0).unwrap();
        let out = b.extract(dsp.node, 7, 0);
        let sketch = b.finish(out);

        let mut asg: BTreeMap<String, BitVec> = BTreeMap::new();
        asg.insert("dsp0.D_SEL".into(), BitVec::from_u64(1, 3));
        asg.insert("dsp0.A_SEL".into(), BitVec::from_u64(2, 3));
        asg.insert("dsp0.B_SEL".into(), BitVec::from_u64(3, 3));
        asg.insert("dsp0.C_SEL".into(), BitVec::from_u64(4, 3));
        asg.insert("dsp0.CARRYIN".into(), BitVec::from_u64(0, 1));
        asg.insert("dsp0.INMODE".into(), BitVec::from_u64(0, 5));
        // X = M, Y = 0, Z = C; ALU logic mode AND (ALUMODE = 0b0100).
        asg.insert("dsp0.OPMODE".into(), BitVec::from_u64(0b0_011_00_01, 9));
        asg.insert("dsp0.ALUMODE".into(), BitVec::from_u64(0b0100, 4));
        for reg in ["AREG", "BREG", "CREG", "DREG", "ADREG", "MREG", "PREG"] {
            asg.insert(format!("dsp0.{reg}"), BitVec::from_u64(0, 1));
        }
        asg.insert("dsp0.AMULTSEL".into(), BitVec::from_u64(1, 1));
        let filled = sketch.fill_holes(&asg).unwrap().simplified();
        assert!(filled.is_structural());

        let env = StreamInputs::from_constants(
            [("a", 3u64), ("b", 5), ("c", 7), ("d", 0x3F)]
                .into_iter()
                .map(|(n, v)| (n.to_string(), BitVec::from_u64(v, 8))),
        );
        let expected = ((3 + 5) * 7) & 0x3F;
        assert_eq!(filled.interp(&env, 0).unwrap(), BitVec::from_u64(expected, 8));
    }

    #[test]
    fn lut_instantiation_works_on_every_architecture() {
        for arch in Architecture::all() {
            let mut b = ProgBuilder::new("lut_sketch");
            let x = b.input("x", 1);
            let y = b.input("y", 1);
            let lut = arch.instantiate_lut(&mut b, &[x, y], 0);
            let prog = b.finish(lut);
            assert!(prog.well_formed().is_ok(), "{}", arch.name());
            assert_eq!(prog.width(prog.root()), 1);
            assert_eq!(prog.holes().len(), 1);
            // Fill the LUT with an XOR truth table and check it behaves as XOR.
            let init_width = 1 << arch.lut_size();
            let hole = &prog.holes()[0];
            let mut truth = BitVec::zeros(init_width);
            // Entries where exactly one of the two low address bits is set.
            truth = truth.with_bit(1, true).with_bit(2, true);
            let mut asg = BTreeMap::new();
            asg.insert(hole.name.clone(), truth);
            let filled = prog.fill_holes(&asg).unwrap();
            for (xv, yv) in [(0u64, 0u64), (0, 1), (1, 0), (1, 1)] {
                let env = StreamInputs::from_constants([
                    ("x".to_string(), BitVec::from_u64(xv, 1)),
                    ("y".to_string(), BitVec::from_u64(yv, 1)),
                ]);
                assert_eq!(
                    filled.interp(&env, 0).unwrap(),
                    BitVec::from_bool((xv ^ yv) == 1),
                    "{} x={xv} y={yv}",
                    arch.name()
                );
            }
        }
    }

    /// `lut_init` agrees with the LUT models' select order: a LUT filled with
    /// the INIT of a truth table computes that table on every point, for every
    /// input count up to the LUT size.
    #[test]
    fn lut_init_follows_each_models_select_order() {
        let mut rng = lr_bv::Rng::new(0x7ab1e);
        for arch in Architecture::all() {
            for k in 0..=arch.lut_size() {
                let mut b = ProgBuilder::new("lut_tt");
                let names: Vec<String> = (0..k).map(|i| format!("x{i}")).collect();
                let pins: Vec<NodeId> = names.iter().map(|n| b.input(n, 1)).collect();
                let lut = arch.instantiate_lut(&mut b, &pins, 0);
                let prog = b.finish(lut);
                let truth = rng.next_u64() & (u64::MAX >> (64 - (1 << k)));
                let hole = prog.holes()[0].name.clone();
                let filled =
                    prog.fill_holes(&BTreeMap::from([(hole, arch.lut_init(truth, k))])).unwrap();
                for point in 0..1u64 << k {
                    let env = StreamInputs::from_constants(
                        names
                            .iter()
                            .enumerate()
                            .map(|(i, n)| (n.clone(), BitVec::from_u64(point >> i, 1))),
                    );
                    assert_eq!(
                        filled.interp(&env, 0).unwrap(),
                        BitVec::from_bool(truth >> point & 1 == 1),
                        "{} k={k} point={point:b}",
                        arch.name()
                    );
                }
            }
        }
    }

    #[test]
    fn description_sizes_track_the_papers_ordering() {
        // Paper §5.2: SOFA (20) < Intel (178) < Xilinx (185) < Lattice (240).
        // Our descriptions are smaller but must preserve SOFA < Intel < {Xilinx, Lattice}.
        let sofa = Architecture::sofa().description_sloc();
        let intel = Architecture::intel_cyclone10lp().description_sloc();
        let xilinx = Architecture::xilinx_ultrascale_plus().description_sloc();
        let lattice = Architecture::lattice_ecp5().description_sloc();
        assert!(sofa < intel);
        assert!(intel < xilinx);
        assert!(intel < lattice);
    }
}

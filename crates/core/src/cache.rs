//! Content-addressed synthesis caching: the `lr_core` side of the `lr_serve`
//! batch-serving subsystem.
//!
//! A mapping run is expensive (CEGIS over SAT) but its *inputs* are small: the
//! behavioral spec, the architecture, the sketch template, and the synthesis
//! budget. Once the spec has been canonicalized by equality saturation
//! ([`lr_ir::Prog::saturated`] + cost-based extraction), semantically-equal
//! designs collapse to one normal form — so a hash of the canonical spec is a
//! *content address* under which the synthesis verdict can be reused across
//! requests, batches, and (with `lr_serve`'s on-disk persistence) processes.
//!
//! This module defines what a cache stores and how keys are computed; the
//! sharded map, persistence, and statistics live in `lr_serve`, which plugs in
//! through [`MapCache`] on [`crate::MapConfig::cache`]. Three design points:
//!
//! * **Keys are AC-normalized.** Extraction breaks cost ties deterministically,
//!   but two *different* embeddings of equivalent specs can still extract
//!   commuted or re-associated forms of the same expression. The fingerprint
//!   therefore hashes commutative-associative operator chains as sorted
//!   multisets, so `a+(b+c)` and `(c+a)+b` share a key.
//! * **Entries replay hole assignments, not programs.** A success is stored as
//!   the synthesized hole values; a hit regenerates the sketch and re-fills it.
//!   That keeps entries tiny and forces every replay through the same
//!   specialization path as synthesis.
//! * **Success hits are verified.** A replayed implementation is checked
//!   against the spec by `lr_ir` interpretation before it is served (see
//!   [`replay`]): on every input point for small register-free specs, which
//!   makes the check a proof, else on pseudorandom stimulus. A stale or
//!   hash-colliding entry fails the check, is invalidated, and the request
//!   falls back to real synthesis. UNSAT entries have nothing to replay, so
//!   they rest on the content address alone — which is why the key is 128
//!   bits and why the on-disk format carries a version header that must be
//!   bumped whenever the sketch generator or synthesis semantics change what
//!   is mappable.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use std::time::{Duration, Instant};

use lr_arch::Architecture;
use lr_bv::BitVec;
use lr_ir::{HoleDomain, Node, NodeId, Prog, StreamInputs};
use lr_sketch::Template;
use lr_synth::SynthesisStats;

use crate::{count_resources, generate_sketch, pipeline_depth, MapConfig, MappedDesign};

/// A 128-bit content address: spec fingerprint × architecture × template ×
/// timeout tier. Displayed (and persisted) as 32 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(pub [u64; 2]);

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.0[0], self.0[1])
    }
}

impl FromStr for CacheKey {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 32 {
            return Err(format!("cache key must be 32 hex digits, got {}", s.len()));
        }
        let hi = u64::from_str_radix(&s[..16], 16).map_err(|e| e.to_string())?;
        let lo = u64::from_str_radix(&s[16..], 16).map_err(|e| e.to_string())?;
        Ok(CacheKey([hi, lo]))
    }
}

impl CacheKey {
    /// The shard index for this key among `shards` shards.
    pub fn shard(&self, shards: usize) -> usize {
        (self.0[0] as usize) % shards.max(1)
    }

    /// Computes the content address of one mapping job. `spec` must be the
    /// *prepared* spec — already canonicalized when the e-graph is on — since the
    /// whole point is that equal canonical forms share an address.
    pub fn for_mapping(
        spec: &Prog,
        arch: &Architecture,
        template: Template,
        timeout: Duration,
    ) -> CacheKey {
        let mut mix = Mix::new();
        let (a, b) = spec_fingerprint(spec);
        mix.u64(a);
        mix.u64(b);
        mix.str(&arch.name().to_string());
        mix.str(template.cli_name());
        mix.u64(timeout_tier(timeout) as u64);
        CacheKey(mix.finish())
    }
}

/// The synthesis budget bucket a key falls into. Budgets inside one tier share
/// cache entries; the paper's per-architecture timeouts (120 s / 40 s / 20 s)
/// land in distinct tiers, so a verdict found under a generous budget is never
/// served to a run that advertised a much tighter one (or vice versa).
pub fn timeout_tier(timeout: Duration) -> u8 {
    match timeout.as_secs() {
        0..=4 => 0,
        5..=29 => 1,
        30..=89 => 2,
        _ => 3,
    }
}

/// What a cache stores per key: the verdict worth replaying. Timeouts are never
/// cached — they say nothing about the design, only about the budget.
#[derive(Debug, Clone, PartialEq)]
pub enum CachedOutcome {
    /// Synthesis succeeded with these hole values; a hit re-specializes the
    /// sketch and re-fills the holes (see [`replay`]).
    Success {
        /// The synthesized hole assignment.
        holes: BTreeMap<String, BitVec>,
    },
    /// The solver proved no completion of the template's sketch implements the
    /// spec. Valid for every budget in the key's tier (UNSAT is semantic).
    Unsat,
}

/// The hook `lr_serve` implements: a concurrent, content-addressed store of
/// synthesis verdicts. `map_design` consults it before synthesis and feeds it
/// after; implementations must be safe to share across scheduler workers.
pub trait MapCache: Send + Sync {
    /// Looks up a verdict. Implementations should count hits/misses themselves.
    fn lookup(&self, key: &CacheKey) -> Option<CachedOutcome>;

    /// Records a verdict (last writer wins).
    fn store(&self, key: CacheKey, outcome: CachedOutcome);

    /// Drops an entry whose replay failed verification, so the slot is rewritten
    /// by the synthesis fallback instead of poisoning every future lookup.
    fn invalidate(&self, key: &CacheKey);
}

// ---------------------------------------------------------------------------
// Spec fingerprinting
// ---------------------------------------------------------------------------

/// Two independent FNV-1a streams over the same bytes; 128 bits keeps accidental
/// collisions out of reach of any realistic workload, and verified replay makes
/// even a collision harmless.
struct Mix {
    a: u64,
    b: u64,
}

impl Mix {
    fn new() -> Mix {
        // FNV-1a offset basis, and the same basis re-mixed with the FNV prime so
        // the two lanes decorrelate from the first byte.
        Mix { a: 0xcbf2_9ce4_8422_2325, b: 0xcbf2_9ce4_8422_2325 ^ 0x0100_0000_01b3 }
    }

    fn u8(&mut self, byte: u8) {
        const PRIME: u64 = 0x0100_0000_01b3;
        // The second lane must multiply by an *odd* constant — an even one
        // shifts entropy out of the low bits on every step and degenerates the
        // lane. The golden-ratio constant is odd and mixes well.
        const PRIME_B: u64 = 0x9E37_79B9_7F4A_7C15;
        self.a = (self.a ^ byte as u64).wrapping_mul(PRIME);
        self.b = (self.b ^ byte.rotate_left(3) as u64).wrapping_mul(PRIME_B);
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.u8(byte);
        }
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for byte in s.bytes() {
            self.u8(byte);
        }
    }

    fn bitvec(&mut self, bv: &BitVec) {
        self.u64(bv.width() as u64);
        self.str(&bv.to_hex_string());
    }

    fn finish(&self) -> [u64; 2] {
        [self.a, self.b]
    }
}

/// Operators that are both commutative and associative: their operand chains are
/// hashed as sorted multisets so that tree shape and operand order cannot split
/// equal specs across keys.
fn is_ac(op: lr_ir::BvOp) -> bool {
    use lr_ir::BvOp;
    matches!(op, BvOp::Add | BvOp::Mul | BvOp::And | BvOp::Or | BvOp::Xor)
}

/// A structural fingerprint of a program, invariant under node renumbering and
/// under commutation/re-association of AC operator chains. Cycles through
/// registers (counters, accumulators) hash by back-edge *distance*, which is
/// isomorphism-invariant.
pub fn spec_fingerprint(spec: &Prog) -> (u64, u64) {
    fn node_fp(
        prog: &Prog,
        id: NodeId,
        open: &mut Vec<NodeId>,
        memo: &mut std::collections::HashMap<NodeId, [u64; 2]>,
    ) -> [u64; 2] {
        if let Some(pos) = open.iter().rposition(|&o| o == id) {
            // Back edge (feedback through a register): hash the distance to the
            // open node, the de-Bruijn trick that names cycles canonically.
            let mut m = Mix::new();
            m.str("back");
            m.u64((open.len() - pos) as u64);
            return m.finish();
        }
        // Only cache below any open cycle: a node's hash depends on back-edge
        // distances, which change with the path taken to reach it.
        if open.is_empty() {
            if let Some(&fp) = memo.get(&id) {
                return fp;
            }
        }
        let mut m = Mix::new();
        match prog.node(id).expect("node id belongs to the program") {
            Node::BV(bv) => {
                m.str("const");
                m.bitvec(bv);
            }
            Node::Var { name, width } => {
                m.str("var");
                m.str(name);
                m.u64(*width as u64);
            }
            Node::Hole { name, width, domain } => {
                m.str("hole");
                m.str(name);
                m.u64(*width as u64);
                match domain {
                    HoleDomain::AnyConstant => m.str("any"),
                    HoleDomain::Choice(vs) => {
                        m.str("choice");
                        m.u64(vs.len() as u64);
                        for v in vs {
                            m.bitvec(v);
                        }
                    }
                    HoleDomain::LessThan(bound) => {
                        m.str("lt");
                        m.bitvec(bound);
                    }
                }
            }
            Node::Reg { data, init } => {
                m.str("reg");
                m.bitvec(init);
                open.push(id);
                let fp = node_fp(prog, *data, open, memo);
                open.pop();
                m.u64(fp[0]);
                m.u64(fp[1]);
            }
            Node::Op(op, args) => {
                if is_ac(*op) {
                    // Flatten the same-op chain and hash its operands order-free.
                    let mut operands: Vec<[u64; 2]> = Vec::new();
                    let mut stack: Vec<NodeId> = args.iter().rev().copied().collect();
                    while let Some(a) = stack.pop() {
                        match prog.node(a) {
                            Some(Node::Op(inner, inner_args)) if inner == op => {
                                stack.extend(inner_args.iter().rev().copied());
                            }
                            _ => operands.push(node_fp(prog, a, open, memo)),
                        }
                    }
                    operands.sort_unstable();
                    m.str("ac-op");
                    m.str(&op.to_string());
                    m.u64(operands.len() as u64);
                    for fp in operands {
                        m.u64(fp[0]);
                        m.u64(fp[1]);
                    }
                } else {
                    m.str("op");
                    m.str(&op.to_string());
                    let mut fps: Vec<[u64; 2]> =
                        args.iter().map(|&a| node_fp(prog, a, open, memo)).collect();
                    // `Eq` is commutative but (being 1-bit-valued) not usefully
                    // associative: sort its two operand hashes in place.
                    if *op == lr_ir::BvOp::Eq {
                        fps.sort_unstable();
                    }
                    for fp in fps {
                        m.u64(fp[0]);
                        m.u64(fp[1]);
                    }
                }
            }
            Node::Prim(p) => {
                m.str("prim");
                m.str(&p.module);
                m.str(&p.interface);
                m.str(&p.output_port);
                m.u64(p.bindings.len() as u64);
                for (port, &target) in &p.bindings {
                    m.str(port);
                    let fp = node_fp(prog, target, open, memo);
                    m.u64(fp[0]);
                    m.u64(fp[1]);
                }
                let (a, b) = spec_fingerprint(&p.semantics);
                m.u64(a);
                m.u64(b);
            }
        }
        let fp = m.finish();
        if open.is_empty() {
            memo.insert(id, fp);
        }
        fp
    }

    let mut m = Mix::new();
    m.str("prog");
    // The input interface is part of the content: two specs computing the same
    // cone over different declared interfaces pose different synthesis tasks.
    let inputs = spec.free_vars();
    m.u64(inputs.len() as u64);
    for (name, width) in &inputs {
        m.str(name);
        m.u64(*width as u64);
    }
    let root = node_fp(spec, spec.root(), &mut Vec::new(), &mut std::collections::HashMap::new());
    m.u64(root[0]);
    m.u64(root[1]);
    let [a, b] = m.finish();
    (a, b)
}

// ---------------------------------------------------------------------------
// Verified replay
// ---------------------------------------------------------------------------

/// Pseudorandom but deterministic stimulus for replay verification: xorshift64
/// seeded per (round, input), never zero.
fn stimulus(round: u64, input_index: u64) -> u64 {
    let mut s = ((round << 32) | input_index).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for _ in 0..3 {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
    }
    s
}

/// Rounds of random stimulus a replayed implementation must match before it is
/// served. Cheap (pure interpretation) relative to even one solver call.
const REPLAY_ROUNDS: u64 = 12;

/// Register-free specs with at most this many input bits are replayed on every
/// input point instead of the seeded rounds. The check is then a proof, and it
/// is cheaper too: 16 points for a 4-leaf cone against 12 rounds × (window + 1)
/// cycles.
const EXHAUSTIVE_INPUT_BITS: u32 = 6;

/// Replays a cached hole assignment: regenerates the sketch for `(template,
/// arch, spec)`, fills the holes, simplifies, and checks the result against the
/// spec by stream interpretation at the cycles synthesis would have checked
/// (see [`agrees`]). Returns `None` — caller falls back to synthesis — if the
/// sketch no longer generates, the assignment no longer fits its domains, or
/// any checked point disagrees (a stale or colliding entry).
pub fn replay(
    spec: &Prog,
    template: Template,
    arch: &Architecture,
    config: &MapConfig,
    holes: &BTreeMap<String, BitVec>,
    started: Instant,
) -> Option<MappedDesign> {
    let sketch = generate_sketch(template, arch, spec).ok()?;
    let filled = sketch.fill_holes(holes).ok()?;
    let implementation = filled.simplified().with_name(format!("{}_impl", spec.name()));
    if !agrees(spec, &implementation, pipeline_depth(spec), config.bmc_window) {
        return None;
    }
    let resources = count_resources(&implementation);
    let verilog = lr_hdl::emit_verilog(&implementation);
    let elapsed = started.elapsed();
    Some(MappedDesign {
        implementation,
        verilog,
        resources,
        elapsed,
        winning_solver: None,
        iterations: 0,
        from_cache: true,
        stats: SynthesisStats {
            solver_name: "cache".to_string(),
            elapsed,
            from_cache: true,
            ..SynthesisStats::default()
        },
    })
}

/// Whether `implementation` matches `spec` at cycles `t..=t + window` under
/// constant input streams: on every input point when the spec is register-free
/// with at most [`EXHAUSTIVE_INPUT_BITS`] input bits, otherwise on
/// [`REPLAY_ROUNDS`] seeded points. When neither program holds a register,
/// every cycle computes the same value, so only cycle `t` is interpreted.
pub(crate) fn agrees(spec: &Prog, implementation: &Prog, t: u32, window: u32) -> bool {
    let inputs = spec.free_vars();
    let combinational = spec.is_combinational();
    let last = if combinational && implementation.is_combinational() { t } else { t + window };
    let matches = |env: &StreamInputs| match (
        spec.interp_trace(env, last),
        implementation.interp_trace(env, last),
    ) {
        (Ok(want), Ok(got)) => want[t as usize..] == got[t as usize..],
        _ => false,
    };
    let input_bits: u32 = inputs.iter().map(|(_, width)| width).sum();
    if combinational && input_bits <= EXHAUSTIVE_INPUT_BITS {
        return (0..1u64 << input_bits).all(|point| matches(&point_env(&inputs, point)));
    }
    (0..REPLAY_ROUNDS).all(|round| {
        let mut env = StreamInputs::new();
        for (i, (name, width)) in inputs.iter().enumerate() {
            env.set_constant(name.clone(), BitVec::from_u64(stimulus(round, i as u64), *width));
        }
        matches(&env)
    })
}

/// The constant input streams of one input point: `inputs` take consecutive
/// bits of `point`, the first input the lowest.
pub(crate) fn point_env(inputs: &[(String, u32)], point: u64) -> StreamInputs {
    let mut env = StreamInputs::new();
    let mut shift = 0;
    for (name, width) in inputs {
        env.set_constant(name.clone(), BitVec::from_u64(point >> shift, *width));
        shift += width;
    }
    env
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_ir::{BvOp, ProgBuilder};

    fn key_of(spec: &Prog) -> CacheKey {
        CacheKey::for_mapping(
            spec,
            &Architecture::intel_cyclone10lp(),
            Template::Dsp,
            Duration::from_secs(15),
        )
    }

    #[test]
    fn keys_are_stable_and_roundtrip_through_hex() {
        let mut b = ProgBuilder::new("p");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let out = b.op2(BvOp::Mul, a, bb);
        let spec = b.finish(out);
        let k1 = key_of(&spec);
        let k2 = key_of(&spec.clone());
        assert_eq!(k1, k2);
        let parsed: CacheKey = k1.to_string().parse().unwrap();
        assert_eq!(parsed, k1);
        assert!("xyz".parse::<CacheKey>().is_err());
    }

    #[test]
    fn ac_chains_share_a_fingerprint_and_order_matters_elsewhere() {
        // (a + b) + c vs c + (b + a): same key.
        let build = |perm: [&str; 3], left_assoc: bool| {
            let mut b = ProgBuilder::new("p");
            let xs: Vec<_> = perm.iter().map(|n| b.input(n, 8)).collect();
            let out = if left_assoc {
                let t = b.op2(BvOp::Add, xs[0], xs[1]);
                b.op2(BvOp::Add, t, xs[2])
            } else {
                let t = b.op2(BvOp::Add, xs[1], xs[2]);
                b.op2(BvOp::Add, xs[0], t)
            };
            b.finish(out)
        };
        let p1 = build(["a", "b", "c"], true);
        let p2 = build(["c", "b", "a"], false);
        assert_eq!(spec_fingerprint(&p1), spec_fingerprint(&p2));

        // a - b vs b - a: different keys.
        let sub = |swap: bool| {
            let mut b = ProgBuilder::new("p");
            let a = b.input("a", 8);
            let bb = b.input("b", 8);
            let out = if swap { b.op2(BvOp::Sub, bb, a) } else { b.op2(BvOp::Sub, a, bb) };
            b.finish(out)
        };
        assert_ne!(spec_fingerprint(&sub(false)), spec_fingerprint(&sub(true)));
    }

    #[test]
    fn key_distinguishes_arch_template_and_tier() {
        let mut b = ProgBuilder::new("p");
        let a = b.input("a", 8);
        let bb = b.input("b", 8);
        let out = b.op2(BvOp::Mul, a, bb);
        let spec = b.finish(out);
        let base = key_of(&spec);
        let other_arch = CacheKey::for_mapping(
            &spec,
            &Architecture::lattice_ecp5(),
            Template::Dsp,
            Duration::from_secs(15),
        );
        let other_template = CacheKey::for_mapping(
            &spec,
            &Architecture::intel_cyclone10lp(),
            Template::Multiplication,
            Duration::from_secs(15),
        );
        let other_tier = CacheKey::for_mapping(
            &spec,
            &Architecture::intel_cyclone10lp(),
            Template::Dsp,
            Duration::from_secs(120),
        );
        assert_ne!(base, other_arch);
        assert_ne!(base, other_template);
        assert_ne!(base, other_tier);
        // Same tier, different second → same key.
        let same_tier = CacheKey::for_mapping(
            &spec,
            &Architecture::intel_cyclone10lp(),
            Template::Dsp,
            Duration::from_secs(20),
        );
        assert_eq!(base, same_tier);
    }

    #[test]
    fn register_feedback_hashes_by_shape_not_id() {
        // Two counters built with different id layouts fingerprint equal.
        let counter = |pad: bool| {
            let mut b = ProgBuilder::new("ctr");
            if pad {
                let _ = b.constant_u64(99, 4); // dead node shifts every id
            }
            let r = b.reg_placeholder(8);
            let one = b.constant_u64(1, 8);
            let next = b.op2(BvOp::Add, r, one);
            b.set_reg_data(r, next);
            b.finish(r)
        };
        assert_eq!(spec_fingerprint(&counter(false)), spec_fingerprint(&counter(true)));
    }

    /// A cached LUT INIT wrong on exactly one input point that the seeded
    /// rounds never draw is still rejected: a small combinational spec is
    /// replayed on every point.
    #[test]
    fn replay_rejects_an_init_wrong_only_where_seeded_rounds_never_look() {
        // out = (x0 & x1) | (x2 ^ x3): a 4-leaf, one-LUT cone.
        let mut b = ProgBuilder::new("cone");
        let x: Vec<NodeId> = (0..4).map(|i| b.input(&format!("x{i}"), 1)).collect();
        let and = b.op2(BvOp::And, x[0], x[1]);
        let xor = b.op2(BvOp::Xor, x[2], x[3]);
        let out = b.op2(BvOp::Or, and, xor);
        let spec = b.finish(out);
        let f = |p: u64| (p & 1 == 1 && p >> 1 & 1 == 1) || ((p >> 2) ^ (p >> 3)) & 1 == 1;
        let truth = (0..16).filter(|&p| f(p)).fold(0u64, |t, p| t | 1 << p);

        let drawn: Vec<u64> = (0..REPLAY_ROUNDS)
            .map(|round| (0..4).map(|i| (stimulus(round, i) & 1) << i).sum())
            .collect();
        let unseen = (0..16).find(|p| !drawn.contains(p)).expect("12 rounds cannot draw 16 points");

        let arch = Architecture::intel_cyclone10lp();
        let config = MapConfig::default();
        let replay_with = |truth: u64| {
            let holes = BTreeMap::from([("lut0.INIT".to_string(), arch.lut_init(truth, 4))]);
            replay(&spec, Template::Bitwise, &arch, &config, &holes, Instant::now())
        };
        assert!(replay_with(truth).is_some(), "the right INIT replays");
        assert!(
            replay_with(truth ^ 1 << unseen).is_none(),
            "an INIT wrong at point {unseen:04b}, which no seeded round draws, must be stale"
        );
    }

    #[test]
    fn timeout_tiers_bucket_the_paper_budgets_apart() {
        assert_eq!(timeout_tier(Duration::from_secs(2)), 0);
        assert_eq!(timeout_tier(Duration::from_secs(15)), 1);
        assert_eq!(timeout_tier(Duration::from_secs(40)), 2);
        assert_eq!(timeout_tier(Duration::from_secs(120)), 3);
        assert_ne!(timeout_tier(Duration::from_secs(20)), timeout_tier(Duration::from_secs(40)));
    }
}

//! The program emitter: turns a `(GenSpec, seed)` pair into a toy-ISA
//! program plus per-site stream descriptors.
//!
//! ## Knob → mechanism mapping
//!
//! * **pred/spread** — every branch site reads a word from its own
//!   precomputed decision stream in data memory and branches on it; the
//!   stream is Bernoulli with taken-bias `0.5 + 0.5·(pred ± jitter)`
//!   (polarity randomized per site). A 2-bit counter's accuracy on an iid
//!   stream is a monotone function of that bias, which is what makes the
//!   knob an *axis*: `pred=0` is a coin flip (≈50% measured), `pred=1` is
//!   fully determined (≈100%).
//! * **depth** — counted loops nested around the block body; loop-back
//!   branches add the highly-predictable population every real program
//!   has.
//! * **calls** — blocks append `jal` calls to generated leaf functions.
//! * **jr** — blocks become register-indirect dispatches: `jr` into a
//!   ladder of always-taken branches, one per way. The ladder keeps every
//!   way statically reachable (the analyzer gives `jr` only an exit edge);
//!   a `beq way, r0, ladder` guard anchors the ladder itself and handles
//!   way 0, exactly like the `synacor` interpreter's dispatch.
//! * **alias** — loads/stores hash into a workspace window whose size
//!   shrinks as the knob grows: `alias=0` spreads over 4096 words,
//!   `alias=1` collapses onto one.
//!
//! The emitter is two-pass only to materialize dispatch-table addresses
//! into `li` instructions: pass 1 runs with placeholder zeros and records
//! the table labels' addresses, pass 2 re-runs with them embedded. Both
//! passes draw the same PRNG sequence, so the layout is identical.

use dee_isa::{Assembler, Program, Reg};
use dee_rng::Rng;

use crate::spec::GenSpec;

/// Words per site decision stream (power of two; indexed mod this).
pub const STREAM: usize = 256;
/// Word address of the first decision stream.
pub const RAND_BASE: i32 = 4096;
/// Word address of the load/store workspace.
pub const DATA_BASE: i32 = 16384;
/// Workspace size in words; the aliasing knob shrinks the active window.
pub const WORKSPACE: i32 = 4096;
/// Ways per `jr` dispatch site.
pub const JR_WAYS: usize = 4;

/// How one site's decision stream is distributed.
#[derive(Clone, Copy, Debug)]
pub enum SiteKind {
    /// A conditional-branch site: stream words are 0/1 with `P(1) =
    /// taken_bias`.
    Branch {
        /// Probability a stream word is 1 (branch taken).
        taken_bias: f64,
    },
    /// A `jr` dispatch site: stream words are way indices in
    /// `0..JR_WAYS`, concentrated on `dominant` with probability
    /// `dominant_p` and uniform otherwise.
    Dispatch {
        /// The way that receives the concentrated probability mass.
        dominant: usize,
        /// Probability mass on the dominant way.
        dominant_p: f64,
    },
}

/// One generated branch/dispatch site and where its stream lives.
#[derive(Clone, Copy, Debug)]
pub struct Site {
    /// Stream distribution.
    pub kind: SiteKind,
    /// Absolute word address of the site's stream segment.
    pub stream_base: i32,
}

/// The emitter's output for one pass.
pub struct Emitted {
    /// The assembled program.
    pub program: Program,
    /// Dispatch-table addresses found at this pass's layout, in site
    /// order (one entry per `Dispatch` site).
    pub tables: Vec<u32>,
    /// Site descriptors, block order.
    pub sites: Vec<Site>,
    /// Total innermost-body executions (`iters · Π inner trips`).
    pub inner_iterations: u64,
}

// Host register map (r0 and r29..r31 left to their ABI roles).
const COUNTERS: [u8; 4] = [1, 2, 3, 4];
const R_K: u8 = 5; // stream index
const R_H: u8 = 6; // address hash
const R_HADDR: u8 = 7; // workspace address
const R_V: u8 = 8; // stream value
const R_T: u8 = 9; // scratch
const ACCS: [u8; 4] = [10, 11, 12, 13];
const R_STREAM: u8 = 14; // RAND_BASE
const R_DATA: u8 = 15; // DATA_BASE
const R_A0: u8 = 16;
const R_A1: u8 = 17;
const R_RV: u8 = 18;
const R_JT: u8 = 19; // jr target
const R_MVAL: u8 = 20; // loaded value
const R_T2: u8 = 21; // block-local value chain

/// Leaf-function count the call knob draws from.
const NFUNCS: usize = 3;

fn clamp01(x: f64) -> f64 {
    x.clamp(0.0, 1.0)
}

/// Emits a block-local value chain: seed a temp from the stream value,
/// mix 1–3 ops over it, and fold it into one accumulator with a single
/// op. Keeping the *per-accumulator* serial chain this thin is what gives
/// generated programs real dataflow ILP — iterations overlap freely off
/// the thin `k` counter chain, so branch (mis)prediction, not a
/// register-dependence chain, bounds the achievable speedup.
fn fill(asm: &mut Assembler, rng: &mut Rng) {
    let t2 = Reg::new(R_T2);
    asm.mv(t2, Reg::new(R_V));
    for _ in 0..=rng.below(3) {
        match rng.below(5) {
            0 => asm.add(t2, t2, Reg::new(R_K)),
            1 => asm.xor(t2, t2, Reg::new(R_H)),
            2 => asm.addi(t2, t2, rng.below(129) as i32 - 64),
            3 => asm.muli(t2, t2, (2 * rng.below(15) + 3) as i32),
            _ => asm.xori(t2, t2, rng.below(1 << 12) as i32),
        };
    }
    let acc = Reg::new(ACCS[rng.below(4)]);
    asm.xor(acc, acc, t2);
}

/// Computes this site's workspace address into `R_HADDR`, hashing the
/// iteration counter rather than chaining a global hash — the hash is
/// per-block so memory addresses, like the value chains, hang off the
/// thin `k` chain instead of serializing the whole run.
fn workspace_addr(asm: &mut Assembler, rng: &mut Rng, region: i32) {
    let h = Reg::new(R_H);
    asm.muli(h, Reg::new(R_K), (2 * rng.below(4096) + 21) as i32);
    asm.addi(h, h, (2 * rng.below(512) + 1) as i32);
    asm.andi(h, h, 16383); // keep the hash nonnegative for remi
    asm.remi(Reg::new(R_T), h, region);
    asm.add(Reg::new(R_HADDR), Reg::new(R_DATA), Reg::new(R_T));
}

/// One emitter pass. `tables` holds dispatch-table addresses from a prior
/// pass (zeros are emitted where missing). The PRNG sequence depends only
/// on `(spec, seed)`, so passes lay out identically.
pub fn emit(spec: &GenSpec, seed: u64, tables: &[u32]) -> Emitted {
    let mut rng = Rng::new(seed ^ 0x6465_655f_6765_6e21); // program stream
    let mut asm = Assembler::new();
    let zero = Reg::ZERO;
    let (k, h, v, t) = (Reg::new(R_K), Reg::new(R_H), Reg::new(R_V), Reg::new(R_T));
    let region = ((1.0 - spec.alias) * f64::from(WORKSPACE)).round().max(1.0) as i32;

    // Init: constants, accumulator seeds, hash seed.
    asm.li(Reg::new(R_STREAM), RAND_BASE);
    asm.li(Reg::new(R_DATA), DATA_BASE);
    asm.li(k, 0);
    asm.li(h, rng.below(16384) as i32);
    for acc in ACCS {
        asm.li(Reg::new(acc), rng.below(1 << 20) as i32);
    }
    // Fold the hash seed in immediately: every later `h` definition is
    // per-block (off the `k` counter), so without this read the seed
    // would be a dead store in shapes whose first block never reads `h`.
    asm.xor(Reg::new(ACCS[0]), Reg::new(ACCS[0]), h);

    // Loop nest: level 0 is the iters-controlled outer loop; deeper
    // levels are short counted loops re-armed per enclosing iteration.
    let mut trips: Vec<u32> = vec![spec.iters];
    for _ in 1..spec.depth {
        trips.push(2 + rng.below(3) as u32);
    }
    let inner_iterations: u64 = trips.iter().map(|&t| u64::from(t)).product();
    for (level, &count) in trips.iter().enumerate() {
        let counter = Reg::new(COUNTERS[level]);
        asm.li(counter, count as i32);
        asm.label(&format!("loop{level}"));
    }

    // Innermost body: bump the stream cursor, then the block sites.
    asm.addi(k, k, 1);
    asm.andi(k, k, STREAM as i32 - 1);

    let mut sites: Vec<Site> = Vec::new();
    let mut found_tables: Vec<u32> = Vec::new();
    let mut used_fns: Vec<bool> = vec![false; NFUNCS];
    for block in 0..spec.blocks as usize {
        let stream_base = RAND_BASE + (block * STREAM) as i32;
        // Load this site's decision word: v = mem[stream_base + k].
        asm.addi(t, Reg::new(R_STREAM), (block * STREAM) as i32);
        asm.add(t, t, k);
        asm.lw(v, t, 0);

        let jitter = (rng.f64() * 2.0 - 1.0) * spec.spread;
        let strength = clamp01(spec.pred + jitter);
        if rng.chance(spec.jr) {
            // Dispatch site: jr through a ladder of always-taken
            // branches; the beq guard anchors static reachability and
            // handles way 0 (see module docs).
            let dominant = rng.below(JR_WAYS);
            let dominant_p = 1.0 / JR_WAYS as f64 + (1.0 - 1.0 / JR_WAYS as f64) * strength;
            sites.push(Site {
                kind: SiteKind::Dispatch {
                    dominant,
                    dominant_p,
                },
                stream_base,
            });
            let table = tables.get(found_tables.len()).copied().unwrap_or(0);
            let jt = Reg::new(R_JT);
            asm.li(jt, table as i32);
            asm.add(jt, jt, v);
            asm.beq_label(v, zero, &format!("b{block}_tbl"));
            asm.jr(jt);
            found_tables.push(asm.here());
            asm.label(&format!("b{block}_tbl"));
            for way in 0..JR_WAYS {
                asm.bge_label(zero, zero, &format!("b{block}_w{way}"));
            }
            for way in 0..JR_WAYS {
                asm.label(&format!("b{block}_w{way}"));
                fill(&mut asm, &mut rng);
                if way == rng.below(JR_WAYS) {
                    // One way per site carries the block's memory traffic.
                    workspace_addr(&mut asm, &mut rng, region);
                    let acc = Reg::new(ACCS[rng.below(4)]);
                    asm.lw(Reg::new(R_MVAL), Reg::new(R_HADDR), 0);
                    asm.add(acc, acc, Reg::new(R_MVAL));
                    asm.sw(acc, Reg::new(R_HADDR), 0);
                }
                if way + 1 < JR_WAYS {
                    asm.j_label(&format!("b{block}_end"));
                }
            }
        } else {
            // Branch site: taken-or-not on the biased decision stream,
            // distinct filler on each arm, a load on one and a store on
            // the other.
            let taken_bias = {
                let bias = 0.5 + 0.5 * strength;
                if rng.chance(0.5) {
                    bias
                } else {
                    1.0 - bias
                }
            };
            sites.push(Site {
                kind: SiteKind::Branch { taken_bias },
                stream_base,
            });
            asm.bne_label(v, zero, &format!("b{block}_taken"));
            fill(&mut asm, &mut rng);
            let load_on_fall = rng.chance(0.5);
            workspace_addr(&mut asm, &mut rng, region);
            let acc = Reg::new(ACCS[rng.below(4)]);
            if load_on_fall {
                asm.lw(Reg::new(R_MVAL), Reg::new(R_HADDR), 0);
                asm.add(acc, acc, Reg::new(R_MVAL));
            } else {
                asm.sw(acc, Reg::new(R_HADDR), 0);
            }
            asm.j_label(&format!("b{block}_end"));
            asm.label(&format!("b{block}_taken"));
            fill(&mut asm, &mut rng);
            workspace_addr(&mut asm, &mut rng, region);
            let acc = Reg::new(ACCS[rng.below(4)]);
            if load_on_fall {
                asm.sw(acc, Reg::new(R_HADDR), 0);
            } else {
                asm.lw(Reg::new(R_MVAL), Reg::new(R_HADDR), 0);
                asm.add(acc, acc, Reg::new(R_MVAL));
            }
        }
        asm.label(&format!("b{block}_end"));

        // Call tail, independent of block kind so the knobs compose.
        if rng.chance(spec.calls) {
            let which = rng.below(NFUNCS);
            used_fns[which] = true;
            asm.mv(Reg::new(R_A0), Reg::new(ACCS[rng.below(4)]));
            asm.mv(Reg::new(R_A1), h);
            asm.call_label(&format!("fn{which}"));
            let acc = Reg::new(ACCS[rng.below(4)]);
            asm.xor(acc, acc, Reg::new(R_RV));
        }
    }

    // Close the nest, innermost first.
    for (level, _) in trips.iter().enumerate().rev() {
        let counter = Reg::new(COUNTERS[level]);
        asm.addi(counter, counter, -1);
        asm.bgt_label(counter, zero, &format!("loop{level}"));
    }

    // Observable exit state: accumulators and the address hash, so every
    // filler chain and workspace access is live.
    for acc in ACCS {
        asm.out(Reg::new(acc));
    }
    asm.out(h);
    asm.halt();

    // Leaf functions, only those actually called (an uncalled function
    // would be statically unreachable — a DEE-W001 lint).
    for (which, used) in used_fns.iter().enumerate() {
        if !used {
            continue;
        }
        let rv = Reg::new(R_RV);
        asm.label(&format!("fn{which}"));
        asm.add(rv, Reg::new(R_A0), Reg::new(R_A1));
        asm.muli(rv, rv, (2 * rng.below(31) + 3) as i32);
        asm.xori(rv, rv, rng.below(1 << 16) as i32);
        asm.ret();
    }

    let program = asm.assemble().expect("generated program assembles");
    Emitted {
        program,
        tables: found_tables,
        sites,
        inner_iterations,
    }
}

/// Builds the initial-memory image: one decision stream per site, drawn
/// from a data-PRNG stream independent of the layout PRNG.
#[must_use]
pub fn build_memory(sites: &[Site], seed: u64) -> Vec<i32> {
    let mut rng = Rng::new(seed ^ 0x6461_7461_5f31_3337); // data stream
    let len = RAND_BASE as usize + sites.len() * STREAM;
    let mut memory = vec![0i32; len];
    for site in sites {
        let base = site.stream_base as usize;
        for word in &mut memory[base..base + STREAM] {
            *word = match site.kind {
                SiteKind::Branch { taken_bias } => i32::from(rng.f64() < taken_bias),
                SiteKind::Dispatch {
                    dominant,
                    dominant_p,
                } => {
                    if rng.f64() < dominant_p {
                        dominant as i32
                    } else {
                        rng.below(JR_WAYS) as i32
                    }
                }
            };
        }
    }
    memory
}
